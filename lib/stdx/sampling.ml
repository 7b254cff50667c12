let sum_weights w =
  let s = Array.fold_left (fun acc x ->
      if x < 0.0 || Float.is_nan x then invalid_arg "Sampling: negative or NaN weight";
      acc +. x)
      0.0 w
  in
  if s <= 0.0 then invalid_arg "Sampling: weights must have positive sum";
  s

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Sampling.choose: empty array";
  a.(Prng.int g (Array.length a))

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create w =
    let n = Array.length w in
    if n = 0 then invalid_arg "Alias.create: empty weights";
    let s = sum_weights w in
    let scaled = Array.map (fun x -> x *. float_of_int n /. s) w in
    let prob = Array.make n 0.0 and alias = Array.make n 0 in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large) scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s_i = Stack.pop small and l_i = Stack.pop large in
      prob.(s_i) <- scaled.(s_i);
      alias.(s_i) <- l_i;
      scaled.(l_i) <- scaled.(l_i) +. scaled.(s_i) -. 1.0;
      if scaled.(l_i) < 1.0 then Stack.push l_i small else Stack.push l_i large
    done;
    Stack.iter (fun i -> prob.(i) <- 1.0) small;
    Stack.iter (fun i -> prob.(i) <- 1.0) large;
    { prob; alias }

  let sample t g =
    let n = Array.length t.prob in
    let i = Prng.int g n in
    if Prng.float g < t.prob.(i) then i else t.alias.(i)

  let size t = Array.length t.prob
end
