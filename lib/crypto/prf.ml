type algo = Hmac_sha256 | Siphash24

type key = Hmac_key of Hmac.key | Siphash_key of Siphash.key

let of_raw ?(algo = Hmac_sha256) raw =
  if String.length raw < 16 then invalid_arg "Prf.of_raw: key must be at least 16 bytes";
  match algo with
  | Hmac_sha256 -> Hmac_key (Hmac.prepare raw)
  | Siphash24 -> Siphash_key (Siphash.of_raw (String.sub raw 0 16))

let algo = function Hmac_key _ -> Hmac_sha256 | Siphash_key _ -> Siphash24

let tag_string key input =
  match key with
  | Hmac_key k -> Stdx.Bytes_util.get_u64_be (Hmac.mac_prepared k input) 0
  | Siphash_key k -> Siphash.hash k input

let salt_bytes salt =
  let b = Bytes.create 8 in
  Stdx.Bytes_util.put_u64_be b 0 (Int64.of_int salt);
  Bytes.unsafe_to_string b

let tag key ~salt ~message =
  tag_string key (Stdx.Bytes_util.length_prefixed [ salt_bytes salt; message ])

let tag_salt_only key ~salt = tag_string key (Stdx.Bytes_util.length_prefixed [ salt_bytes salt ])
