let block_size = 16
let rounds = 10

(* GF(2^8) multiplication with the AES reduction polynomial x^8+x^4+x^3+x+1. *)
let gmul a b =
  let a = ref a and b = ref b and p = ref 0 in
  for _ = 0 to 7 do
    if !b land 1 <> 0 then p := !p lxor !a;
    let hi = !a land 0x80 in
    a := (!a lsl 1) land 0xff;
    if hi <> 0 then a := !a lxor 0x1b;
    b := !b lsr 1
  done;
  !p

(* S-box = affine(inverse). The inverse table is built by brute force
   once at module initialization; 2^16 multiplies is negligible. *)
let sbox, inv_sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for x = 0 to 255 do
    let i = inv.(x) in
    let v = i lxor rotl8 i 1 lxor rotl8 i 2 lxor rotl8 i 3 lxor rotl8 i 4 lxor 0x63 in
    s.(x) <- v;
    si.(v) <- x
  done;
  (s, si)

(* Single-byte multiplication tables for the InvMixColumns
   coefficients of the textbook inverse cipher. *)
let mul_table c = Array.init 256 (fun x -> gmul x c)

let mul9 = mul_table 9
let mul11 = mul_table 11
let mul13 = mul_table 13
let mul14 = mul_table 14

(* Words are 32-bit big-endian column words: byte r of column c is
   row r, so a block's bytes 4c..4c+3 load as word c. *)
let mask32 = 0xffffffff
let rotr8 w = ((w lsr 8) lor (w lsl 24)) land mask32

(* T-tables: te0.(x) is the MixColumns column of S(x) at row 0,
   (2·S(x), S(x), S(x), 3·S(x)); te1..te3 are its byte rotations for
   rows 1..3. One forward round is then 16 lookups and 16 XORs. The
   lookups are indexed by secret state, the same cache-timing class as
   the S-box lookups they replace (DESIGN.md §5b). *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (gmul s 2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor gmul s 3)

let te1 = Array.map rotr8 te0
let te2 = Array.map rotr8 te1
let te3 = Array.map rotr8 te2

type key = { rk : int array (* 4 * (rounds+1) round-key words *) }

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let get_word s i =
  (Char.code s.[i] lsl 24) lor (Char.code s.[i + 1] lsl 16) lor (Char.code s.[i + 2] lsl 8)
  lor Char.code s.[i + 3]

let expand raw =
  if String.length raw <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes";
  let rk = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to 3 do
    rk.(i) <- get_word raw (4 * i)
  done;
  let rcon = ref 1 in
  for i = 4 to (4 * (rounds + 1)) - 1 do
    let t = rk.(i - 1) in
    let t =
      if i mod 4 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let v = sub_word (((t lsl 8) lor (t lsr 24)) land mask32) lxor (!rcon lsl 24) in
        rcon := gmul !rcon 2;
        v
      end
      else t
    in
    rk.(i) <- rk.(i - 4) lxor t
  done;
  { rk }

(* Unchecked loads and stores: [encrypt_block] checks the block's range
   once at entry, table indices are bytes, and round-key indices stay
   below 4 * (rounds+1). *)
let[@inline] load b i =
  (Char.code (Bytes.unsafe_get b i) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (i + 3))

let[@inline] store b i w =
  Bytes.unsafe_set b i (Char.unsafe_chr (w lsr 24));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set b (i + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set b (i + 3) (Char.unsafe_chr (w land 0xff))

let[@inline] round a0 a1 a2 a3 k =
  Array.unsafe_get te0 (a0 lsr 24)
  lxor Array.unsafe_get te1 ((a1 lsr 16) land 0xff)
  lxor Array.unsafe_get te2 ((a2 lsr 8) land 0xff)
  lxor Array.unsafe_get te3 (a3 land 0xff)
  lxor k

let[@inline] last a0 a1 a2 a3 k =
  ((Array.unsafe_get sbox (a0 lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((a1 lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((a2 lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (a3 land 0xff))
  lxor k

(* Forward cipher: AddRoundKey, nine T-table rounds (SubBytes +
   ShiftRows + MixColumns + AddRoundKey per column word), then the
   final round without MixColumns. Allocates nothing. *)
let encrypt_block key b ~off =
  if off < 0 || off > Bytes.length b - block_size then
    invalid_arg "Aes128.encrypt_block: block out of range";
  let rk = key.rk in
  let s0 = ref (load b off lxor Array.unsafe_get rk 0) in
  let s1 = ref (load b (off + 4) lxor Array.unsafe_get rk 1) in
  let s2 = ref (load b (off + 8) lxor Array.unsafe_get rk 2) in
  let s3 = ref (load b (off + 12) lxor Array.unsafe_get rk 3) in
  for r = 1 to rounds - 1 do
    let k = 4 * r and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := round a0 a1 a2 a3 (Array.unsafe_get rk k);
    s1 := round a1 a2 a3 a0 (Array.unsafe_get rk (k + 1));
    s2 := round a2 a3 a0 a1 (Array.unsafe_get rk (k + 2));
    s3 := round a3 a0 a1 a2 (Array.unsafe_get rk (k + 3))
  done;
  let k = 4 * rounds and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  store b off (last a0 a1 a2 a3 (Array.unsafe_get rk k));
  store b (off + 4) (last a1 a2 a3 a0 (Array.unsafe_get rk (k + 1)));
  store b (off + 8) (last a2 a3 a0 a1 (Array.unsafe_get rk (k + 2)));
  store b (off + 12) (last a3 a0 a1 a2 (Array.unsafe_get rk (k + 3)))

(* The textbook inverse cipher over a 16-cell byte state, column-major
   as in FIPS 197: state.(4*c + r) is row r, column c. Kept byte-wise
   and independent of the T-tables, so the tests' round trips check
   the forward cipher against a second implementation. *)

let add_round_key state key round =
  for c = 0 to 3 do
    let w = key.rk.((4 * round) + c) in
    for r = 0 to 3 do
      state.((4 * c) + r) <- state.((4 * c) + r) lxor ((w lsr (24 - (8 * r))) land 0xff)
    done
  done

let inv_shift_rows state =
  let t = state.(13) in
  state.(13) <- state.(9);
  state.(9) <- state.(5);
  state.(5) <- state.(1);
  state.(1) <- t;
  let t = state.(2) in
  state.(2) <- state.(10);
  state.(10) <- t;
  let t = state.(6) in
  state.(6) <- state.(14);
  state.(14) <- t;
  let t = state.(3) in
  state.(3) <- state.(7);
  state.(7) <- state.(11);
  state.(11) <- state.(15);
  state.(15) <- t

let inv_mix_columns state =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = state.(i) and a1 = state.(i + 1) and a2 = state.(i + 2) and a3 = state.(i + 3) in
    state.(i) <- mul14.(a0) lxor mul11.(a1) lxor mul13.(a2) lxor mul9.(a3);
    state.(i + 1) <- mul9.(a0) lxor mul14.(a1) lxor mul11.(a2) lxor mul13.(a3);
    state.(i + 2) <- mul13.(a0) lxor mul9.(a1) lxor mul14.(a2) lxor mul11.(a3);
    state.(i + 3) <- mul11.(a0) lxor mul13.(a1) lxor mul9.(a2) lxor mul14.(a3)
  done

let inv_sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- inv_sbox.(state.(i))
  done

let decrypt_block key b ~off =
  let state = Array.make 16 0 in
  for i = 0 to 15 do
    state.(i) <- Char.code (Bytes.get b (off + i))
  done;
  add_round_key state key rounds;
  for round = rounds - 1 downto 1 do
    inv_shift_rows state;
    inv_sub_bytes state;
    add_round_key state key round;
    inv_mix_columns state
  done;
  inv_shift_rows state;
  inv_sub_bytes state;
  add_round_key state key 0;
  for i = 0 to 15 do
    Bytes.set b (off + i) (Char.chr state.(i))
  done

let encrypt_string key s =
  if String.length s <> 16 then invalid_arg "Aes128.encrypt_string: need one 16-byte block";
  let b = Bytes.of_string s in
  encrypt_block key b ~off:0;
  Bytes.unsafe_to_string b

let decrypt_string key s =
  if String.length s <> 16 then invalid_arg "Aes128.decrypt_string: need one 16-byte block";
  let b = Bytes.of_string s in
  decrypt_block key b ~off:0;
  Bytes.unsafe_to_string b
