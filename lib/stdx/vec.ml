type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let check t i =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i t.len)

let get t i =
  check t i;
  Array.unsafe_get t.data i

let set t i x =
  check t i;
  Array.unsafe_set t.data i x

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some (Array.unsafe_get t.data t.len)
  end

let clear t =
  t.data <- [||];
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

let backing t = (t.data, t.len)

let map f t =
  { data = Array.map f (to_array t); len = t.len }

let exists p t =
  let rec loop i = i < t.len && (p (Array.unsafe_get t.data i) || loop (i + 1)) in
  loop 0

let to_list t = Array.to_list (to_array t)
let of_array a = { data = Array.copy a; len = Array.length a }
let of_list l = of_array (Array.of_list l)

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  t.data <- a
