(** Immutable point-in-time view of one table (an epoch snapshot).

    [Table.freeze] publishes one of these under the table's writer
    lock; afterwards every accessor is a pure read plus pager charges,
    so any number of reader domains can query the view while writers
    keep mutating the live table — readers never block writers and
    vice versa. Nothing row-sized is copied. The columnar storage
    (per-column dictionaries and id arrays) is shared by pointer — safe
    because those structures are append-only, with vacuum swapping in
    fresh backings instead of mutating shared slots — and so are the
    index postings, persistent trees of which the view keeps the roots
    current at freeze time, and the table's per-slot delete epochs: a
    slot is live in the view while the epoch that tombstoned it is
    above the view's {!epoch}, and every delete after the freeze writes
    a higher one. So later mutations — including vacuum and checkpoint
    — are invisible through the view. *)

type t

type col = {
  dict : Column_dict.frozen;
  ids : int array;  (** shared backing; slots at or past the view's row count are foreign *)
}

val make :
  epoch:int ->
  name:string ->
  schema:Schema.t ->
  heap_rel:Pager.rel ->
  cols:col array ->
  n:int ->
  dead_at:int array ->
  row_pages:int array ->
  row_sizes:int array ->
  n_dead:int ->
  cur_page:int ->
  cur_fill:int ->
  data_bytes:int ->
  live_bytes:int ->
  reclaimed:Value.t array ->
  row_bytes:(Value.t array -> int) ->
  indexes:(string * Table_index.t) list ->
  range_trees:(string * Range_tree.t) list ->
  t
(** Constructor for [Table.freeze] — not meant for direct use. *)

val epoch : t -> int
(** The table's mutation epoch this view was frozen at. *)

val name : t -> string
val schema : t -> Schema.t

val row_count : t -> int
(** Heap slots, including tombstones and reclaimed holes. *)

val live_count : t -> int
val is_live : t -> int -> bool

val live_only : t -> int array -> int array
(** Keep the ids of live rows, in order — the visibility check every
    index-driven plan applies to its candidates. *)

val is_reclaimed : t -> int -> bool
(** True for a slot vacuumed away before the freeze. *)

val peek_row : t -> int -> Value.t array
(** Materialize the row from the column dictionaries, without any pager
    charge (predicate evaluation). Reclaimed slots return the empty
    sentinel row. *)

val read_row : t -> int -> Value.t array
(** The row with heap page touch, row and transfer charges. Transfer is
    charged at the logical (row-format) tuple size, like the pre-
    columnar engine, so modeled query costs are layout-independent. *)

val read_cols : t -> int -> int array -> Value.t array
(** [read_cols v id positions]: the row with only the cells at
    [positions] (schema positions) materialized, every other cell
    [Value.Null]. Touches the same heap page and charges the same row
    as {!read_row}; transfer is charged at the logical size of the
    projected tuple, so it counts only the fetched cells. Raises
    [Invalid_argument] for a position outside the schema. *)

val scan : t -> (int -> Value.t array -> unit) -> unit
(** Full scan in id order: touches each heap page once, surfaces live
    rows only, charges every slot examined. *)

val index_on : t -> column:string -> Table_index.t option
(** The index on [column] as it stood at freeze time, if any. *)

val indexes : t -> (string * Table_index.t) list

val range_tree : t -> column:string -> Range_tree.t option
(** The boundary tree registered for the rtag column [column]
    ([Table.set_range_tree]) when the view was frozen, if any — what
    the executor expands a range query's cover roots over. *)

val row_page : t -> int -> int

val cur_page : t -> int
val cur_fill : t -> int
val data_bytes : t -> int
val live_bytes : t -> int
(** Heap-cursor and accounting state at freeze time, so a physical
    checkpoint taken from the view ([Table.snapshot_of_view]) restores
    byte-identically. *)

(* Columnar internals — the checkpoint serializer streams these
   directly instead of materializing rows. *)

val n_cols : t -> int

val col_id : t -> col:int -> int -> int
(** Dictionary id of (column, row); -1 for a reclaimed slot. *)

val row_size : t -> int -> int
(** Physical (columnar) tuple bytes of a heap slot; 0 once reclaimed. *)

val dict : t -> col:int -> Column_dict.frozen
