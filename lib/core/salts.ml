type t = { salts : int array; weights : float array }

let make ~salts ~weights = { salts; weights }

let det = make ~salts:[| 0 |] ~weights:[| 1.0 |]

let fixed ~n =
  if n <= 0 then invalid_arg "Salts.fixed: need at least one salt";
  make ~salts:(Array.init n Fun.id) ~weights:(Array.make n (1.0 /. float_of_int n))

let proportional ~total_tags ~prob =
  if total_tags <= 0 then invalid_arg "Salts.proportional: total_tags must be positive";
  if prob <= 0.0 || prob > 1.0 then invalid_arg "Salts.proportional: prob must be in (0,1]";
  let n = max 1 (int_of_float (Float.round (prob *. float_of_int total_tags))) in
  fixed ~n

let poisson ~seed ~lambda ~prob =
  if prob <= 0.0 || prob > 1.0 then invalid_arg "Salts.poisson: prob must be in (0,1]";
  let drbg = Crypto.Drbg.create ~seed in
  let slots =
    Dist.Poisson.process_on_interval ~rate:lambda ~length:prob (Dist.Source.of_drbg drbg)
  in
  let weights = Array.map (fun w -> w /. prob) slots in
  make ~salts:(Array.init (Array.length slots) Fun.id) ~weights

let validate t =
  let n = Array.length t.salts in
  if n = 0 then Error "empty salt set"
  else if Array.length t.weights <> n then Error "salts/weights length mismatch"
  else begin
    let seen = Hashtbl.create n in
    let dup = Array.exists (fun s ->
        if Hashtbl.mem seen s then true
        else begin
          Hashtbl.replace seen s ();
          false
        end)
        t.salts
    in
    if dup then Error "duplicate salt identifiers"
    else if Array.exists (fun w -> w <= 0.0 || Float.is_nan w) t.weights then
      Error "non-positive weight"
    else begin
      let sum = Array.fold_left ( +. ) 0.0 t.weights in
      if Float.abs (sum -. 1.0) > 1e-9 then
        Error (Printf.sprintf "weights sum to %.12f, expected 1" sum)
      else Ok ()
    end
  end
