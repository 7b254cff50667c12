(** Append-only write-ahead log.

    Frame layout (all little-endian):
    {v [u32 payload length][u64 LSN][u32 CRC-32 of LSN-bytes ‖ payload][payload] v}

    LSNs increase by one per record and never reset — a snapshot
    records the last LSN it covers, so replay after a crash that landed
    between snapshot publication and log truncation simply skips the
    already-checkpointed prefix.

    A torn tail (short header, short payload, or CRC mismatch on the
    last frame) is the expected signature of a crash mid-append and is
    treated as a clean end-of-log; {!replay} reports where the valid
    prefix ends so the opener can truncate the garbage. *)

type t

val create : path:string -> group_commit:int -> next_lsn:int64 -> t
(** Open (or create) the log for appending. [group_commit] = how many
    appends may ride on one fsync: 1 syncs every record (full
    durability), [n] syncs every [n]th — the classic
    throughput-vs-window-of-loss knob. *)

val append : t -> string -> int64
(** Write one record, returning its LSN. Fsyncs when the group-commit
    quota is reached. *)

val sync : t -> unit
(** Force an fsync now (commit barrier; no-op if nothing is pending). *)

val reset : t -> unit
(** Truncate to empty after a checkpoint made the contents redundant.
    LSNs keep counting. *)

val truncate_to : t -> int -> unit
(** Cut a torn tail off at a valid frame boundary (from {!replay}'s
    [valid_len]) and fsync. *)

val next_lsn : t -> int64
val size : t -> int
val close : t -> unit

val replay : path:string -> (int64 -> string -> unit) -> int64 * int
(** Scan the log, calling [f lsn payload] for each intact frame in
    order. Returns [(max_lsn, valid_len)]: the highest LSN seen (0 when
    the log is empty) and the byte offset where the valid prefix ends.
    Never raises on torn/corrupt trailing data — it stops there. An
    exception from [f] on an intact frame (say [Codec.Corrupt] from a
    record kind this build cannot decode) propagates: that frame was
    written whole, so it is not a torn tail to trim. *)

val replay_in_place :
  path:string -> (int64 -> string -> off:int -> len:int -> unit) -> int64 * int
(** {!replay} without a copy per frame: [f lsn data ~off ~len] gets the
    whole log's bytes and where the frame's payload lies in them. The
    CRCs are checked in place too, so the open reads each log byte
    once. *)
