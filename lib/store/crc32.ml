(* Slicing-by-8 over native ints: table k maps a byte to its CRC
   contribution k bytes further along, so one step folds eight input
   bytes with eight lookups. The running CRC lives in the low 32 bits
   of an int, so nothing is boxed per byte; the values are those of
   the byte-at-a-time reflected algorithm (polynomial 0xEDB88320). *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xFF)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2
let t4 = next t3
let t5 = next t4
let t6 = next t5
let t7 = next t6

(* Every index below is a byte: masked to 0..255, or the top byte of a
   32-bit value — always inside the 256-entry tables. *)
let ( .%() ) = Array.unsafe_get

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32.update_sub";
  let stop = off + len in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref off in
  while !i + 8 <= stop do
    let w = String.get_int64_le s !i in
    let one = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let two = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      t7.%(one land 0xFF)
      lxor t6.%((one lsr 8) land 0xFF)
      lxor t5.%((one lsr 16) land 0xFF)
      lxor t4.%(one lsr 24)
      lxor t3.%(two land 0xFF)
      lxor t2.%((two lsr 8) land 0xFF)
      lxor t1.%((two lsr 16) land 0xFF)
      lxor t0.%(two lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t0.%((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let update crc s = update_sub crc s 0 (String.length s)

let digest s = update 0l s
