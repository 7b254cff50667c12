(** Query planner and executor.

    Implements the two query shapes of the paper's evaluation:
    - [SELECT ID FROM t WHERE …] — answered from indexes alone when the
      predicate allows (an index-only scan; "these queries only require
      that the DBMS scan the indexes", §VI-B);
    - [SELECT * FROM t WHERE …] — additionally fetches each matching
      row from its heap page and charges transfer bytes.

    Planning: an [Eq]/[In] predicate over an indexed column becomes an
    index (multi-)lookup; a conjunction uses the first indexable leg
    and filters the rest; a disjunction whose legs are all indexable
    becomes a deduplicated union of index lookups (the WRE proxy's
    server-side OR of tag IN-lists); anything else is a sequential
    scan.

    Every plan runs against a frozen {!Read_view} ({!Table.freeze}) —
    the only read path — and feeds the process-wide [Obs.Metrics]
    registry (plan counts, candidate/returned rows, a wall-time
    histogram) and, when tracing is on, emits an [executor.run_view] or
    [executor.run_traverse] span with an [executor.plan] event. *)

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
      (** ESEDS boundary-tree walk probing the named rtag column *)
  | Seq_scan

type result = {
  row_ids : int array;
  rows : Value.t array array;  (** empty for [Row_ids]; sparse for [Columns] *)
  plan : plan_kind;
  wall_ns : float;  (** measured executor time *)
  stats : Pager.stats;  (** pager-counter delta for this query *)
}

val explain : Read_view.t -> Predicate.t -> plan_kind
(** The plan that {!run_view} would choose, without executing. *)

val run_join :
  ?pool:Stdx.Task_pool.t ->
  left:Read_view.t ->
  right:Read_view.t ->
  on_left:string ->
  on_right:string ->
  Join.spec ->
  Join.result
(** The two-table join plan (see {!Join} for modes and contracts):
    [Equi] hash-joins on value equality, [Buckets] runs the tag-bucket
    join of the encrypted path — per-bucket postings from both views'
    ON-column indexes, cross products fanned across [pool] in bucket
    order, candidate pairs sorted + deduplicated, byte-identical to
    the sequential run at 1 domain. *)

val run_view : ?pool:Stdx.Task_pool.t -> Read_view.t -> projection:projection -> Predicate.t -> result
(** Plan and run a single-table query against a frozen epoch snapshot
    ({!Table.freeze}), safe to call from any domain. When [pool] is
    given, the per-tag index probes of multi-key plans (rewritten WRE
    IN-lists, server-side OR legs) fan out across its domains; results
    are combined in index order and unions sort + dedup, so
    [row_ids]/[rows] are identical regardless of scheduling, and with
    no pool (or one domain) the probes run in list order. [stats] is
    this query's own pager delta, exact even under concurrent queries:
    probe tasks measure domain-local deltas that are summed into the
    caller's window. *)

val run_traverse :
  ?pool:Stdx.Task_pool.t ->
  Read_view.t ->
  tree:Range_tree.t ->
  tag_column:string ->
  roots:int64 array ->
  projection:projection ->
  Predicate.t ->
  result
(** The ESEDS range plan: expand each canonical-cover root of [roots]
    through [Range_tree.traverse] into leaf bucket tags, probe the
    B-tree/hash index on [tag_column] (the rtag column) for each, and
    re-check the full server predicate over the candidates. One task
    per subtree root fans across [pool]; per-root probe results are
    sorted + deduplicated and roots combine through a sort + dedup
    union, so the result is byte-identical at any domain count and to
    the flat tag IN-list plan over the same range. Unknown root
    pseudonyms expand to nothing (total, never an error); a view with
    no index on [tag_column] degrades to a filtered sequential scan.
    Feeds the [range.*] Obs counters (nodes visited, leaf probes) and
    histograms (cover roots, probes per query). *)
