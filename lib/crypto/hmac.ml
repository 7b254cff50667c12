let block = Sha256.block_size

let normalize_key key =
  if String.length key > block then Sha256.digest key else key

(* SHA-256 after absorbing one key-xor-pad block. *)
let pad_state key byte =
  let b = Bytes.make block (Char.chr byte) in
  String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor byte))) key;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx b ~off:0 ~len:block;
  ctx

(* The inner and outer pad states, computed once per key and only ever
   copied afterwards, so a prepared key is safe to share across
   domains. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = normalize_key key in
  { inner = pad_state key 0x36; outer = pad_state key 0x5c }

let mac_prepared k msg =
  let inner = Sha256.copy k.inner in
  Sha256.feed inner msg;
  let outer = Sha256.copy k.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_prepared (prepare key) msg

let mac_hex ~key msg = Stdx.Bytes_util.to_hex (mac ~key msg)

let mac_u64 ~key msg = Stdx.Bytes_util.get_u64_be (mac ~key msg) 0

let verify ~key msg ~tag = Stdx.Bytes_util.ct_equal tag (mac ~key msg)
