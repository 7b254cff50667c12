(** AES-128 block cipher (FIPS 197), implemented from scratch.

    This is the strongly randomized "Enc'" half of WRE: the paper stores
    an AES encryption of each plaintext next to the weakly-randomized
    search tag (§IV, §VI-A "another column to hold the (strongly
    randomized) AES-encrypted data"). Only the raw block transform lives
    here; the IND-CPA mode is {!Ctr}.

    The S-box is derived algebraically (inverse in GF(2^8) followed by
    the affine map) rather than pasted in. The forward cipher is
    word-oriented: four 256-entry T-tables built from that S-box at
    module initialization fold SubBytes, ShiftRows and MixColumns into
    16 lookups per round. The inverse cipher stays the byte-wise
    textbook one, a second implementation the tests check the forward
    cipher against, along with the FIPS 197 Appendix B/C and
    SP 800-38A vectors. *)

type key
(** Expanded key schedule. *)

val expand : string -> key
(** [expand k] requires a 16-byte key. *)

val encrypt_block : key -> bytes -> off:int -> unit
(** Encrypt 16 bytes of [bytes] in place at [off]. Allocates nothing.
    Raises [Invalid_argument] unless [0 <= off <= length - 16]. *)

val decrypt_block : key -> bytes -> off:int -> unit
(** Inverse cipher, in place. *)

val encrypt_string : key -> string -> string
(** Convenience: encrypt exactly one 16-byte block. *)

val decrypt_string : key -> string -> string

val block_size : int
(** 16. *)
