(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    Used directly as the paper's PRF [F] (Definition 2), and as the
    building block for HKDF and HMAC-DRBG. Validated against the RFC
    4231 test vectors. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. Keys longer than the
    SHA-256 block are hashed first, per the spec. *)

val mac_hex : key:string -> string -> string

val mac_u64 : key:string -> string -> int64
(** First 8 bytes of the tag as a big-endian [int64] — the 64-bit
    search-tag representation used by the encrypted database ("one 64
    bit Integer column for the WRE search tag", paper §VI-A). *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time comparison of a full 32-byte tag. *)

type key
(** A key with its inner and outer pad blocks already absorbed. *)

val prepare : string -> key
(** Hash the key's ipad and opad blocks once (after hashing a key
    longer than the block, as {!mac} does). *)

val mac_prepared : key -> string -> string
(** [mac_prepared (prepare k) msg = mac ~key:k msg], at two compressions
    fewer per message: a short message costs two. Safe to call from
    several domains on one shared key. *)
