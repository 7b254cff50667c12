(** Heap tables with dictionary-encoded columnar pages.

    Rows are stored in insertion order; each column's values are
    interned in a per-column dictionary ({!Column_dict}) and the row
    holds small integer ids, packed into 8 KiB heap pages (8-byte
    tuple header + 4-byte line pointer, MAXALIGN'd id data). Columns
    that evidently never repeat (ciphertext with random nonces) fall
    back to raw storage, accounted inline. The page assignment is what
    makes the cold-cache `SELECT *` experiments faithful: rows matching
    one search tag were inserted at random times, so fetching them
    touches that many distinct heap pages. Modeled query costs are
    layout-independent — read/transfer charges use the logical
    (row-format) tuple size throughout. *)

type t

val create : name:string -> schema:Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val apply : t -> delete:int array -> insert:Value.t array array -> int * int
(** One statement's write, the only way a table's rows change. Every
    row of [insert] is validated against the schema and every id of
    [delete] bound-checked first, so a bad one raises
    [Invalid_argument] before anything changes. Then, under one writer
    lock, one epoch and one {!Journal.Applied} event, it tombstones
    the ids of [delete] that are live (Postgres-style: the heap tuple
    and its index entries stay until a {!vacuum}; scans and lookups
    skip it, and live-byte accounting ({!avg_row_bytes}) drops the row
    at once) and appends the rows of [insert] in order, indexed, with
    consecutive ids. Returns the number of rows tombstoned and the
    first new id ({!row_count} before the call). An UPDATE is MVCC
    style: it tombstones the old versions and inserts the new ones.
    An empty statement takes no lock, publishes no epoch and emits
    nothing. *)

val insert : t -> Value.t array -> int
(** [apply] of one row; returns its id. *)

val insert_batch : t -> Value.t array array -> int
(** [apply] of many rows; returns the first id. *)

val delete : t -> int -> bool
(** [apply] of one tombstone; [false] if the row was already dead. *)

val row_count : t -> int
(** Rows ever inserted (live + dead); row ids range over this. *)

val live_count : t -> int
(** Rows not yet deleted. *)

val is_live : t -> int -> bool

val vacuum : t -> unit
(** Reclaim dead tuples: drop their index entries (so [entry_count]
    and [size_bytes] shrink back to the live rows), release their
    dictionary references (unreferenced dictionary entries are
    reclaimed too), and repack live tuples onto a fresh page
    assignment. Row ids are stable — dead ids stay dead and
    [peek_row] on them returns an empty row afterwards. When no dead
    tuple is left unreclaimed (nothing deleted since the last vacuum
    or restore) it does nothing: no lock, no epoch, no journal
    event. *)

val peek_row : t -> int -> Value.t array
(** Materialize from the column dictionaries without cost accounting
    (for test assertions and internal scans that account separately). *)

val row_page : t -> int -> int
(** Heap page number holding a row. *)

val create_index : t -> column:string -> Table_index.t
(** Build (or return the existing) B-tree index on a column,
    backfilling current rows; at most one index per column. *)

val index_on : t -> column:string -> Table_index.t option

val set_range_tree : t -> column:string -> Range_tree.t -> unit
(** Register (or replace) the boundary tree of the rtag column
    [column], under the writer lock; views frozen afterwards carry it
    ({!Read_view.range_tree}), and the executor expands a range query's
    cover roots over it. Not journaled and not in {!snapshot}: the tree
    is a pure function of the client's checkpointed range boundaries,
    so the client registers it again when it attaches. *)

(* Epoch-based snapshot reads. *)

val freeze : t -> Read_view.t
(** Publish the current epoch as an immutable {!Read_view.t} — the only
    way to query a table. Every mutation (a statement's {!apply}, a
    vacuum that reclaims, an index creation, a range-tree registration) publishes
    one new epoch, so a view holds whole statements. The view is
    cached per epoch, and building one costs O(columns + indexes)
    whatever the row count: the columnar storage and the per-slot
    delete epochs are shared by pointer (a delete writes its
    statement's epoch, above every published view's, into the shared
    slot) and each index contributes its current postings root.
    Readers use the view from any domain without locking; writers keep
    mutating the live table — neither blocks the other. *)

(* Storage accounting (Table I). *)

val heap_pages : t -> int
(** Tuple pages plus the pages the resident column dictionaries
    occupy. *)

val heap_bytes : t -> int
val index_bytes : t -> int
val total_bytes : t -> int
(** heap + all indexes. *)

val avg_row_bytes : t -> float
(** Physical tuple bytes per live row. Unlike heap pages, this drops a
    row's contribution as soon as it is deleted — no vacuum needed. *)

val row_model_pages : t -> int
val row_model_bytes : t -> int
(** What the pre-columnar row-format engine (24-byte tuple headers,
    values inline) would occupy for the same rows — the like-for-like
    baseline for the dictionary compression ratio. Computed when asked,
    O(rows × columns): every unreclaimed slot in id order, at its
    row-format size, packed into [page_size − 24]-byte pages. *)

type column_stats = {
  st_column : string;
  st_rows : int;  (** non-reclaimed heap slots *)
  st_distinct : int;  (** resident dictionary entries *)
  st_interned : bool;  (** still interning (not in raw mode) *)
  st_dict_bytes : int;  (** dictionary-resident storage *)
  st_ids_bytes : int;  (** per-tuple storage: id widths + raw inline values *)
  st_plain_bytes : int;  (** Σ logical value bytes — what row storage would hold *)
}

type storage_stats = {
  st_columns : column_stats array;
  st_heap_pages : int;
  st_heap_bytes : int;
  st_row_model_pages : int;
  st_row_model_bytes : int;
}

val storage_stats : t -> storage_stats
(** Per-column dictionary/compression breakdown (O(rows × columns)). *)

(* Durability hooks. *)

val set_journal : t -> Journal.hook option -> unit
(** Install (or clear) the mutation hook. Each successful mutation is
    reported after it has fully applied in memory, inside its writer
    lock; see {!Journal}. The hook must not call back into the
    table. *)

type column_snapshot = {
  cs_entries : (Value.t * bool) option array;
      (** dictionary slots in id order; [None] = hole, bool = dictionary-accounted *)
  cs_appends : int;
  cs_intern_on : bool;
  cs_ids : int array;  (** dictionary id per heap slot; -1 = reclaimed *)
}

type snapshot = {
  s_name : string;
  s_schema : Schema.t;
  s_cols : column_snapshot array;
  s_live : bool array;
  s_row_pages : int array;
  s_row_sizes : int array;  (** physical tuple bytes per slot; 0 = reclaimed *)
  s_cur_page : int;
  s_cur_fill : int;
  s_data_bytes : int;
  s_live_bytes : int;
  s_indexes : string list;  (** indexed columns, sorted *)
}
(** Physical table state as checkpointed by the storage engine: the
    columnar heap verbatim (dictionaries, id vectors, tombstones, page
    assignment, accounting) plus the index definitions — index
    {e contents} are rebuilt on restore. *)

val snapshot : t -> snapshot
(** Deep copy of the current physical state (via {!freeze}). *)

val snapshot_of_view : Read_view.t -> snapshot
(** Serialize a frozen view — the checkpoint path: the writer lock is
    held only for the {!freeze} itself, never for serialization, so a
    checkpoint no longer pauses readers or writers. *)

val of_snapshot : snapshot -> t
(** Reconstruct a table from a snapshot, byte-identical to the one
    {!snapshot} saw: same row ids, dictionary ids, heap pages,
    accounting, and index entries (including entries of dead-but-
    unvacuumed tuples). Emits no journal events. *)
