(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the
    checksum guarding every WAL frame and the snapshot body. Detects
    torn writes and bit rot; it is {e not} an integrity MAC (the store
    directory is trusted client-side state; see DESIGN.md §5e). *)

val digest : string -> int32
(** CRC of a whole string. *)

val update : int32 -> string -> int32
(** Fold more bytes into a running CRC ([digest s = update (digest "") s]
    — incremental form for checksumming a header and payload without
    concatenating them). *)

val update_sub : int32 -> string -> int -> int -> int32
(** [update_sub crc s off len] folds the [len] bytes of [s] starting at
    [off] into a running CRC, without copying them:
    [update_sub crc s off len = update crc (String.sub s off len)].
    Raises [Invalid_argument] if the range is not inside [s]. *)
