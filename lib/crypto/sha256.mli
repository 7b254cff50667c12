(** SHA-256 (FIPS 180-4), implemented from scratch.

    The container provides no cryptographic packages, so this is the
    hash underlying every keyed primitive in the library (HMAC, HKDF,
    HMAC-DRBG, the PRF that produces search tags). Validated against the
    FIPS / NIST test vectors in the test suite. *)

type ctx
(** Incremental hashing context (mutable). *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val copy : ctx -> ctx
(** An independent context in the same state: feeding one leaves the
    other unchanged. Reads [ctx] only, so any number of domains may
    copy one shared context. *)

val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit
(** Feed a slice of a byte buffer without copying it to a string. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be used again. *)

val digest : string -> string
(** One-shot hash of a full string: 32 raw bytes. *)

val digest_hex : string -> string
(** One-shot hash, lowercase hex. *)

val block_size : int
(** 64 bytes; needed by HMAC. *)

val digest_size : int
(** 32 bytes. *)
