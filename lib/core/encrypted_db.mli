(** The encrypted database: WRE deployed on an unmodified SQL engine.

    Mirrors the paper's evaluation setup (§VI-A): each searchable
    column expands into a 64-bit integer search-tag column (indexed by
    the server like any other column) plus an AES-CTR blob column; all
    remaining non-key columns are stored as AES-CTR blobs; the integer
    primary key stays in the clear so [SELECT ID] works. The server
    never runs custom code — searches compile to
    [WHERE col_tag IN (t₁, …, t_k)].

    For the bucketized scheme, server results can contain false
    positives; {!search_rows} filters them client-side after
    decryption, {!search_ids} returns the raw server answer (what the
    false-positive experiments of Figs. 8–9 measure). *)

type t

val create :
  ?fallback:Column_enc.fallback ->
  ?tag_algo:Crypto.Prf.algo ->
  ?range_columns:(string * int) list ->
  ?range_training:(string -> int64 array) ->
  db:Sqldb.Database.t ->
  name:string ->
  plain_schema:Sqldb.Schema.t ->
  key_column:string ->
  encrypted_columns:string list ->
  kind:Scheme.kind ->
  master:Crypto.Keys.master ->
  dist_of:(string -> Dist.Empirical.t) ->
  seed:int64 ->
  unit ->
  t
(** [key_column] must be an INT column of [plain_schema];
    [encrypted_columns] must be TEXT columns. Creates the encrypted
    table and indexes (key + every tag column) inside [db]. [seed]
    drives the weak randomness (salt choice, CTR nonces). [fallback]
    (default [`Reject]) governs inserts of plaintexts outside the
    profiled distribution — see {!Column_enc.fallback}. [tag_algo]
    picks the search-tag PRF backend. Every index is a B-tree
    ({!Sqldb.Table_index}), the DBMS's built-in index the paper
    assumes.

    [range_columns] lists INT columns to support range queries on, with
    their bucket counts (see {!Range_index}); [range_training] must
    then supply each such column's plaintext values for the equi-depth
    histogram (profiled at initialization like [dist_of]). *)

val attach :
  ?fallback:Column_enc.fallback ->
  ?tag_algo:Crypto.Prf.algo ->
  ?range_boundaries:(string * int64 array) list ->
  table:Sqldb.Table.t ->
  plain_schema:Sqldb.Schema.t ->
  key_column:string ->
  encrypted_columns:string list ->
  kind:Scheme.kind ->
  master:Crypto.Keys.master ->
  dist_of:(string -> Dist.Empirical.t) ->
  prng:Stdx.Prng.t ->
  unit ->
  t
(** Re-bind an {e existing} encrypted table — restored from a durable
    checkpoint — to fresh client-side state: encryptors and data keys
    are re-derived from [master], range indexes are rebuilt from their
    checkpointed [range_boundaries] (no plaintext training needed), and
    the weak-randomness stream continues from [prng] (a restored
    {!Stdx.Prng} state), so subsequent inserts produce tags and
    ciphertexts byte-identical to a process that never stopped. The
    table's schema must match the one [create] would derive; raises
    [Invalid_argument] otherwise. *)

val prng : t -> Stdx.Prng.t
(** The database's weak-randomness generator — what a checkpoint
    exports so {!attach} can resume the exact stream. *)

val table : t -> Sqldb.Table.t
val kind : t -> Scheme.kind
val encrypted_columns : t -> string list
val plain_schema : t -> Sqldb.Schema.t
val key_column : t -> string
val column_encryptor : t -> string -> Column_enc.t
val tag_column : string -> string
val data_column : string -> string

val rtag_column : string -> string
(** The bucket-tag INT column a range-indexed column stores next to
    its ciphertext blob. *)

val insert : t -> Sqldb.Value.t array -> int
(** Encrypt a plaintext row (in [plain_schema] order) and insert it. *)

val encrypt_plain_row : t -> Sqldb.Value.t array -> Sqldb.Value.t array
(** Validate and encrypt a plaintext row into encrypted-schema order
    {e without} inserting it — the same work {!insert} does before
    touching the table, drawing weak randomness from the same stream.
    Lets callers stage a batch of replacements and only mutate the
    table once every row has encrypted cleanly: the proxy's UPDATE
    hands them to one {!Sqldb.Table.apply} with the ids it replaces.
    Deletes are plain tombstones through the same call: the stale tags
    stay in the index until vacuum, which is safe under the snapshot
    model (frequencies only shrink). Raises [Invalid_argument] on
    schema mismatch and {!Column_enc.Unknown_plaintext} under
    [`Reject]. *)

val insert_batch :
  ?pool:Stdx.Task_pool.t -> ?chunk_size:int -> t -> Sqldb.Value.t array array -> int
(** Batched, optionally multicore ingestion. All rows are validated up
    front, the salt caches are pre-warmed with the batch's distinct
    plaintexts, rows are encrypted (in [chunk_size] chunks, default
    1024), and the encrypted rows are applied to the table in a single
    single-writer pass. Returns the first row id; ids are consecutive
    and in input order.

    Determinism contract: without [pool] (or with a 1-domain pool) the
    weak randomness is drawn from the database PRNG row by row, so the
    resulting table is byte-identical — tags, ciphertexts, row order,
    page layout — to calling {!insert} on each row in sequence. With a
    multi-domain pool each chunk draws from its own PRNG split off the
    database PRNG in chunk order, so the result depends only on the
    PRNG state and [chunk_size], not on the domain count or
    scheduling; decrypted contents and search results always match the
    sequential load. Raises {!Column_enc.Unknown_plaintext} like
    {!insert} (under [`Reject], from whichever chunk hits it first). *)

val encrypted_schema : t -> Sqldb.Schema.t
(** The schema of the encrypted table (for export). *)

(* Searches run over a frozen epoch: the given [view] (freeze once,
   query many, from any domain while writers proceed) or one frozen at
   call time. A search runs on the domain that calls it. *)

val freeze : t -> Sqldb.Read_view.t
(** {!Sqldb.Table.freeze} of the underlying encrypted table. *)

val search_ids :
  ?view:Sqldb.Read_view.t ->
  t ->
  column:string ->
  string ->
  Sqldb.Executor.result
(** [SELECT ID WHERE col = m], server-side only (index scan over tags;
    may include bucketized false positives). *)

val search_rows :
  ?view:Sqldb.Read_view.t ->
  t ->
  column:string ->
  string ->
  Sqldb.Value.t array list * Sqldb.Executor.result
(** [SELECT * WHERE col = m]: fetches rows, decrypts them client-side,
    and (for bucketized schemes) drops false positives. Returns the
    plaintext rows and the raw server-side result. *)

val decrypt_row : ?mask:bool array -> t -> Sqldb.Value.t array -> Sqldb.Value.t array
(** Decrypt one encrypted-table row back to [plain_schema] order.
    With [mask] (one flag per plain column), only the flagged positions
    are decrypted; the others come back as [Value.Null]. Each call adds
    the number of non-key columns it decrypted to the
    [edb.columns_decrypted_total] counter. A pure read of the column
    keys plus AES-CTR — safe from any domain. Raises [Invalid_argument]
    when [mask]'s length is not the plain arity. *)

val fetch_positions : ?mask:bool array -> t -> int array
(** The encrypted-schema positions {!decrypt_row} [?mask] reads, in
    ascending order: the key column and the data blob of each masked
    plain column (every one without [mask]), never a tag or rtag
    column — what [Executor.Columns] should fetch for that decrypt.
    Raises [Invalid_argument] when [mask]'s length is not the plain
    arity. *)

val search_predicate : t -> column:string -> string -> Sqldb.Predicate.t
(** The WHERE clause a search compiles to (exposed for tests/EXPLAIN). *)

val tags_for : t -> column:string -> string -> int64 list

val support : t -> column:string -> string array
(** The profiled plaintext support of an encrypted column, in the
    distribution's canonical (descending-probability) order — what the
    proxy's join rewrite enumerates to build tag buckets. *)

(* Bucketized range queries (extension; see {!Range_index}). *)

val range_columns : t -> string list
val range_index : t -> string -> Range_index.t

val range_predicate :
  t -> column:string -> lo:int64 option -> hi:int64 option -> Sqldb.Predicate.t
(** The server leg an inclusive range compiles to:
    [col_rtag IN (cover roots)], the {!range_cover} root pseudonyms,
    never bucket tags. The table holds the column's boundary tree, so
    the executor expands the roots into the overlapped buckets' tags
    (the {!Range_index.tags_for_range} list) before planning, wherever
    the leg sits — bare, ANDed or under OR. The server answer is whole
    buckets; edge-bucket false positives are the client's to filter. *)

(* ESEDS encrypted boundary trees (extension; see {!Range_struct} and
   DESIGN.md §5k). *)

val range_struct : t -> string -> Range_struct.t
(** The client-side boundary tree of a range column, rebuilt
    deterministically from the column's boundaries on both {!create}
    and {!attach}. Raises for non-range columns. *)

val range_tree : t -> string -> Sqldb.Range_tree.t
(** The pseudonymous node table the server traverses. {!create} and
    {!attach} register it with the table for the column's rtag column
    ([Sqldb.Table.set_range_tree]). *)

val range_cover :
  t -> column:string -> lo:int64 option -> hi:int64 option -> Range_struct.cover
(** The O(log B) canonical-cover roots a range query ships instead of
    the flat tag IN-list. *)
