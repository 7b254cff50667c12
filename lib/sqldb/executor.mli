(** Query planner and executor.

    Implements the two query shapes of the paper's evaluation:
    - [SELECT ID FROM t WHERE …] — answered from indexes alone when the
      predicate allows (an index-only scan; "these queries only require
      that the DBMS scan the indexes", §VI-B);
    - [SELECT * FROM t WHERE …] — additionally fetches each matching
      row from its heap page and charges transfer bytes.

    Planning: an [Eq]/[In] predicate over an indexed column becomes an
    index (multi-)lookup and a [Range] one a range scan (every index
    is a B-tree, {!Table_index}); a conjunction uses the first
    indexable leg (a cover leg first, below) and filters the rest; a
    disjunction whose legs are all indexable becomes a deduplicated
    union of index lookups (the WRE proxy's server-side OR of tag
    IN-lists); anything else is a sequential scan.

    Cover legs: a range query ships [rtag IN (cover roots)], pseudonyms
    of nodes of the column's ESEDS boundary tree (DESIGN.md §5k). On a
    column whose view holds a tree ({!Read_view.range_tree}), planning
    first expands each [In] value that names a node into the leaf
    bucket tags below it ({!Range_tree.traverse}); a value that names
    no node stands for itself, so a flat bucket-tag IN-list is
    unchanged. An index access on such a column is labelled
    [Range_traverse], whether the leg is bare, ANDed or an OR leg's.
    The expansion feeds the [range.*] counters and histograms.

    Every plan runs against a frozen {!Read_view} ({!Table.freeze}) —
    the only read path — and feeds the process-wide [Obs.Metrics]
    registry (plan counts, candidate/returned rows, a wall-time
    histogram) and, when tracing is on, emits an [executor.run_view]
    span with an [executor.plan] event (carrying [roots],
    [nodes_visited] and [leaf_probes] when a cover leg was expanded). *)

type projection =
  | Row_ids  (** SELECT ID *)
  | All_columns  (** SELECT * *)
  | Columns of int array
      (** the rows with only these schema positions materialized
          ({!Read_view.read_cols}), every other cell [Value.Null]: the
          same pages and rows as [All_columns], transfer charged for
          the fetched cells only *)

type plan_kind =
  | Index_scan of string
  | Or_index_scan of string list
      (** union of per-leg index lookups, one column per OR leg *)
  | Range_traverse of string
      (** index access on the named rtag column, whose cover roots were
          expanded over its boundary tree *)
  | Seq_scan

type result = {
  row_ids : int array;
  rows : Value.t array array;  (** empty for [Row_ids]; sparse for [Columns] *)
  plan : plan_kind;
  wall_ns : float;  (** measured executor time *)
  stats : Pager.stats;  (** pager-counter delta for this query *)
}

val explain : Read_view.t -> Predicate.t -> plan_kind
(** The plan that {!run_view} would choose, cover expansion included,
    without executing. *)

val run_join :
  left:Read_view.t ->
  right:Read_view.t ->
  on_left:string ->
  on_right:string ->
  Join.spec ->
  Join.result
(** The two-table join plan (see {!Join} for modes and contracts):
    [Equi] hash-joins on value equality, [Buckets] runs the tag-bucket
    join of the encrypted path — per-bucket postings from both views'
    ON-column indexes, cross products in bucket order, candidate pairs
    sorted + deduplicated. *)

val run_view : Read_view.t -> projection:projection -> Predicate.t -> result
(** Plan and run a single-table query against a frozen epoch snapshot
    ({!Table.freeze}), safe to call from any domain. The whole query
    runs on the calling domain: the index lookups of multi-key plans
    (rewritten WRE IN-lists, server-side OR legs) run in list order and
    unions sort + dedup. [stats] is the calling domain's
    {!Pager.local_stats} delta over the query, exact even while other
    domains run queries concurrently. *)

val run_traverse :
  Read_view.t ->
  tree:Range_tree.t ->
  tag_column:string ->
  roots:int64 array ->
  projection:projection ->
  Predicate.t ->
  result
(** {!run_view} over [tag_column IN roots] ANDed with the predicate:
    the cover leg is served first, so the plan is
    [Range_traverse tag_column] when the view indexes that column.
    For callers that hold a cover apart from the predicate. Raises
    [Invalid_argument] unless [tree] is the view's tree for
    [tag_column]. *)
