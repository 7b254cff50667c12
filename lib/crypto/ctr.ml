type key = Aes128.key

let of_raw raw = Aes128.expand raw

let ciphertext_overhead = 16

(* Counter block i is nonce_hi ‖ be64(i): the nonce occupies the high
   64 bits and the block index the low 64, so a single message never
   runs into another message's keystream. One scratch block per call;
   full blocks XOR 8 bytes at a time. *)
let keystream_xor key ~nonce ~src ~src_off ~dst ~dst_off ~len =
  let block = Bytes.create 16 in
  let i = ref 0 and pos = ref 0 in
  while !pos < len do
    Bytes.blit_string nonce 0 block 0 8;
    for j = 0 to 7 do
      Bytes.unsafe_set block (15 - j) (Char.unsafe_chr ((!i lsr (8 * j)) land 0xff))
    done;
    Aes128.encrypt_block key block ~off:0;
    let s = src_off + !pos and d = dst_off + !pos in
    if len - !pos >= 16 then begin
      Bytes.set_int64_ne dst d
        (Int64.logxor (String.get_int64_ne src s) (Bytes.get_int64_ne block 0));
      Bytes.set_int64_ne dst (d + 8)
        (Int64.logxor (String.get_int64_ne src (s + 8)) (Bytes.get_int64_ne block 8))
    end
    else
      for j = 0 to len - !pos - 1 do
        Bytes.set dst (d + j)
          (Char.unsafe_chr (Char.code src.[s + j] lxor Char.code (Bytes.unsafe_get block j)))
      done;
    incr i;
    pos := !pos + 16
  done

let encrypt key ~nonce pt =
  if String.length nonce <> 16 then invalid_arg "Ctr.encrypt: nonce must be 16 bytes";
  let len = String.length pt in
  let out = Bytes.create (16 + len) in
  Bytes.blit_string nonce 0 out 0 16;
  keystream_xor key ~nonce ~src:pt ~src_off:0 ~dst:out ~dst_off:16 ~len;
  Bytes.unsafe_to_string out

let encrypt_random key g pt =
  let nonce = Bytes.unsafe_to_string (Stdx.Prng.bytes g 16) in
  encrypt key ~nonce pt

let decrypt key ct =
  if String.length ct < 16 then invalid_arg "Ctr.decrypt: ciphertext too short";
  let len = String.length ct - 16 in
  let out = Bytes.create len in
  (* The keystream reads only the nonce's high 8 bytes: the
     ciphertext's own prefix. *)
  keystream_xor key ~nonce:ct ~src:ct ~src_off:16 ~dst:out ~dst_off:0 ~len;
  Bytes.unsafe_to_string out
