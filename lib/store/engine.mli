(** The durable storage engine: WAL + checkpoints + recovery.

    An engine owns a directory holding two files — [wal.bin] (see
    {!Wal}) and [snapshot.bin] (see {!Snapshot}) — and a live
    {!Sqldb.Database.t} wired to them through {!Sqldb.Journal}: every
    mutation that applies in memory is appended to the WAL as one
    {!Record.op} before control returns to the caller, and fsynced
    according to the group-commit setting. A statement is one mutation
    ({!Sqldb.Table.apply}), so it is one record and, at the default
    group commit, one fsync; recovery keeps whole statements.

    {!open_dir} recovers: load the latest snapshot if any, replay the
    WAL records past it (torn tail ignored and trimmed), and resume.
    The recovery contract, enforced by the fault-injection tests:
    whatever prefix of acknowledged operations survived the crash is
    reproduced {e exactly} — table contents, row ids, page layout,
    index entries, and the weak-randomness stream, so tags generated
    after reopening are byte-identical to a process that never died.

    The directory is trusted client-side proxy state: it contains the
    exported master key and profiled distributions. The adversary of
    the paper's model sees the encrypted table contents, not this
    directory (DESIGN.md §5e). *)

type t

type recovery = {
  snapshot_loaded : bool;
  replayed : int;  (** WAL records applied past the snapshot *)
  duration_ns : float;
}

val open_dir : ?group_commit:int -> dir:string -> unit -> t
(** Open (creating the directory and empty log on first use) and
    recover. [group_commit] (default 1) = appends per fsync.
    Checkpoints are explicit ({!checkpoint}). *)

val db : t -> Sqldb.Database.t
val dir : t -> string
val recovery : t -> recovery

val create_encrypted :
  ?fallback:Wre.Column_enc.fallback ->
  ?tag_algo:Crypto.Prf.algo ->
  ?range_columns:(string * int) list ->
  ?range_training:(string -> int64 array) ->
  t ->
  name:string ->
  plain_schema:Sqldb.Schema.t ->
  key_column:string ->
  encrypted_columns:string list ->
  kind:Wre.Scheme.kind ->
  master:Crypto.Keys.master ->
  dist_of:(string -> Dist.Empirical.t) ->
  seed:int64 ->
  unit ->
  Wre.Encrypted_db.t
(** {!Wre.Encrypted_db.create} against this engine's database, plus an
    [Attach_wre] WAL record capturing the client-side state (exported
    keys, tag PRF, distribution counts, range boundaries, PRNG seed
    state) so recovery can re-attach without the plaintext profile.
    The table's indexes are B-trees, logged as [Create_index]
    records. *)

val encrypted : t -> string -> Wre.Encrypted_db.t option
(** By table name. *)

val encrypted_names : t -> string list

val flush : t -> unit
(** Commit barrier: fsync any WAL records still riding the
    group-commit window. *)

val checkpoint : t -> unit
(** Flush, atomically publish a snapshot of everything, then truncate
    the WAL. Bounds both log growth and recovery time. The snapshot is
    serialized from frozen epoch views ({!Sqldb.Table.freeze}): each
    table's writer lock is held only long enough to freeze, so
    concurrent readers — and readers still holding {e older} epochs —
    are never paused while the snapshot file is written. *)

val close : t -> unit
(** Flush and release file descriptors. The engine (and its database)
    must not be used afterwards. *)
