(** Binary (de)serialization for WAL payloads and snapshots.

    Little-endian, length-prefixed, no alignment. Writers append to a
    [Buffer.t]; readers advance a {!cursor} and raise {!Corrupt} on any
    malformed input — truncation, bad tags, out-of-range lengths — so
    callers can treat "doesn't decode" and "failed checksum" the same
    way. *)

exception Corrupt of string

type cursor

val cursor : ?off:int -> ?len:int -> string -> cursor
(** A cursor over the [len] bytes of the string starting at [off]
    (default: from 0, to the end), read in place without copying:
    reading past the bound raises {!Corrupt} as reading past the end
    of a string does. Raises [Invalid_argument] if the range is not
    inside the string. *)

val pos : cursor -> int
(** The offset of the next byte, in the whole string. *)

val remaining : cursor -> int
(** Bytes left to read before the bound — lets decoders bound element
    counts by the payload actually present before allocating. *)

val at_end : cursor -> bool
(** No byte is left before the bound. *)

val skip : cursor -> int -> unit

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_u64 : Buffer.t -> int64 -> unit
val put_bool : Buffer.t -> bool -> unit
val put_float : Buffer.t -> float -> unit
val put_str : Buffer.t -> string -> unit
val put_value : Buffer.t -> Sqldb.Value.t -> unit
val put_row : Buffer.t -> Sqldb.Value.t array -> unit
val put_schema : Buffer.t -> Sqldb.Schema.t -> unit

val put_index_kind : Buffer.t -> unit
(** The index kind byte that WAL [Create_index] payloads, snapshot
    index entries and WRE configs carry. Every index is a B-tree, so
    it is always written as 0. *)

val put_table_view : ?flush:(unit -> unit) -> Buffer.t -> Sqldb.Read_view.t -> unit
(** Serialize a table straight from a frozen view, cell by cell, so
    the checkpoint path never materializes it as a
    {!Sqldb.Table.snapshot} record; {!get_table_snapshot} decodes the
    bytes as [Table.snapshot_of_view] of the same view. [flush] is
    called at least once per few thousand cells (and at every section
    boundary) so the caller can spill the buffer to disk. Dictionary
    ids and page numbers are written at the narrowest fixed width that
    fits their range. *)

val get_u8 : cursor -> int
val get_u32 : cursor -> int
val get_u64 : cursor -> int64
val get_bool : cursor -> bool
val get_float : cursor -> float
val get_str : cursor -> string
val get_value : cursor -> Sqldb.Value.t
val get_row : cursor -> Sqldb.Value.t array
val get_schema : cursor -> Sqldb.Schema.t

val get_index_kind : cursor -> unit
(** Read an index kind byte: 0, or 1 — a hash index written by an
    older build, which opens as the B-tree because index contents are
    rebuilt from the heap on restore. Raises {!Corrupt} on any other
    value. *)

val get_table_snapshot : cursor -> Sqldb.Table.snapshot

val get_table_snapshot_v2 : cursor -> Sqldb.Table.snapshot
(** A table in the [WRESNAP2] layout, which also held the row-format
    baseline's counters (16 bytes after the live bytes); they are
    skipped. *)
