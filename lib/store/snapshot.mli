(** Checkpoint snapshots.

    A snapshot is the complete durable state at one LSN: the
    {e physical} snapshot of every table (row ids, tombstones, page
    layout, index definitions), and the client-side WRE state of every
    encrypted table (keys, profiled distributions, range boundaries,
    PRNG stream position).

    Publication is atomic: the body is streamed to [snapshot.bin.tmp]
    through a bounded spill buffer (peak writer memory is ~256 KiB
    regardless of table size), fsynced, renamed over [snapshot.bin],
    and the directory is synced. A crash at any point leaves either
    the old snapshot or the new one — a leftover [.tmp] is ignored by
    {!load}. The file is [magic | body | u32 CRC-of-body] (the CRC is
    a footer so it can be computed while streaming), and the magic is
    [WRESNAP3]. {!load} also reads [WRESNAP2] files, whose body
    additionally held the pager cost model after the LSN and three
    row-format counters per table; those fields are skipped. A
    {e published} snapshot that fails either check is a hard error
    ({!Corrupt_snapshot}), unlike a torn WAL tail, because the rename
    protocol never legitimately produces one. *)

type t = {
  last_lsn : int64;  (** every WAL record with LSN ≤ this is reflected *)
  tables : Sqldb.Table.snapshot list;
  wre : Record.wre_config list;
}

exception Corrupt_snapshot of string

val path : dir:string -> string
(** [dir/snapshot.bin]. *)

val wal_path : dir:string -> string
(** [dir/wal.bin]. *)

val write_views :
  dir:string ->
  last_lsn:int64 ->
  views:Sqldb.Read_view.t list ->
  wre:Record.wre_config list ->
  unit
(** Atomic publish as described above, streamed straight from the
    frozen views ({!Codec.put_table_view}) — no snapshot record is ever
    materialized, so checkpointing a 10M-row table runs in bounded
    memory. {!load} decodes each table as [Table.snapshot_of_view] of
    its view. *)

val load : dir:string -> t option
(** [None] when no snapshot has ever been published; raises
    {!Corrupt_snapshot} when one exists but does not verify, or carries
    a magic other than [WRESNAP3] or [WRESNAP2]. *)
