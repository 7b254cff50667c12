type projection = Row_ids | All_columns | Columns of int array

type plan_kind =
  | Index_scan of string
  | Or_index_scan of string list
  | Range_traverse of string
  | Seq_scan

type result = {
  row_ids : int array;
  rows : Value.t array array;
  plan : plan_kind;
  wall_ns : float;
  stats : Pager.stats;
}

let m_queries = Obs.Metrics.counter "executor.queries_total"
let m_plan_index = Obs.Metrics.counter "executor.plan_index_total"
let m_plan_or = Obs.Metrics.counter "executor.plan_or_index_total"
let m_plan_seq = Obs.Metrics.counter "executor.plan_seq_total"
let m_plan_traverse = Obs.Metrics.counter "executor.plan_range_traverse_total"
let m_trav_nodes = Obs.Metrics.counter "range.nodes_visited_total"
let m_trav_leaves = Obs.Metrics.counter "range.leaf_probes_total"
let h_trav_roots = Obs.Metrics.histogram "range.cover_roots"
let h_trav_leaves = Obs.Metrics.histogram "range.leaf_probes"
let m_candidates = Obs.Metrics.counter "executor.candidates_total"
let m_returned = Obs.Metrics.counter "executor.rows_returned_total"
let h_wall = Obs.Metrics.histogram "executor.wall_ns"

(* Cover expansion (DESIGN.md §5k). A range query names its buckets by
   canonical-cover roots of the column's boundary tree. On a column
   whose view holds a tree, each IN value that names a node becomes the
   leaf bucket tags below it; a value that names no node stands for
   itself — node pseudonyms and bucket tags come from different PRF
   keys, so a flat bucket IN-list passes through unchanged. The second
   component is [None] unless some IN leg sits on a tree-backed column:
   then it counts the roots expanded, nodes visited and leaf tags
   produced. *)
type expansion = { roots : int; visited : int; leaves : int }

let expand_covers view p =
  let seen = ref false and roots = ref 0 and visited = ref 0 and leaves = ref 0 in
  let expand tree v =
    match v with
    | Value.Int root -> (
        match Range_tree.traverse tree ~root with
        | Some (tags, n) ->
            incr roots;
            visited := !visited + n;
            leaves := !leaves + Array.length tags;
            Array.to_list (Array.map (fun tag -> Value.Int tag) tags)
        | None -> [ v ])
    | _ -> [ v ]
  in
  let rec go p =
    match p with
    | Predicate.In (c, vs) -> (
        match Read_view.range_tree view ~column:c with
        | None -> p
        | Some tree ->
            seen := true;
            Predicate.In (c, List.concat_map (expand tree) vs))
    | Predicate.And ps -> Predicate.And (List.map go ps)
    | Predicate.Or ps -> Predicate.Or (List.map go ps)
    | Predicate.Not q -> Predicate.Not (go q)
    | Predicate.True | Predicate.Eq _ | Predicate.Range _ -> p
  in
  let p = go p in
  (p, if !seen then Some { roots = !roots; visited = !visited; leaves = !leaves } else None)

(* Whether [p] is, or conjunctively holds, an IN leg on a tree-backed
   column: the range leg a conjunction serves first. *)
let rec has_cover view = function
  | Predicate.In (c, _) -> Option.is_some (Read_view.range_tree view ~column:c)
  | Predicate.And ps -> List.exists (has_cover view) ps
  | Predicate.True | Predicate.Eq _ | Predicate.Range _ | Predicate.Or _ | Predicate.Not _ -> false

(* The first Eq/In/Range leg over an indexed column, searched shallowly
   through conjunctions, range legs first. The access is a superset of
   the leg it serves (exact for a pure leg), so callers re-check the
   full predicate when the plan does not cover it alone. *)
let rec indexable view p =
  let index_of col = Read_view.index_on view ~column:col in
  match p with
  | Predicate.Eq (col, v) -> Option.map (fun idx -> (col, `Eq (idx, v))) (index_of col)
  | Predicate.In (col, vs) -> Option.map (fun idx -> (col, `In (idx, vs))) (index_of col)
  | Predicate.Range (col, lo, hi) ->
      Option.map (fun idx -> (col, `Range (idx, lo, hi))) (index_of col)
  | Predicate.And ps ->
      let covers, rest = List.partition (has_cover view) ps in
      List.find_map (indexable view) (covers @ rest)
  | Predicate.True | Predicate.Or _ | Predicate.Not _ -> None

(* A disjunction is index-servable when every leg is: the candidate set
   is then the deduplicated union of the per-leg accesses (the WRE
   proxy's server-side OR of tag IN-lists). Nested ORs flatten. *)
let or_accesses view legs =
  let rec go legs acc =
    match legs with
    | [] -> Some acc
    | Predicate.Or sub :: rest -> (
        match go sub acc with Some acc -> go rest acc | None -> None)
    | leg :: rest -> (
        match indexable view leg with
        | Some pair -> go rest (pair :: acc)
        | None -> None)
  in
  Option.map List.rev (go legs [])

type access =
  [ `Eq of Table_index.t * Value.t
  | `In of Table_index.t * Value.t list
  | `Range of Table_index.t * Value.t option * Value.t option ]

type planned = P_index of string * access | P_or of (string * access) list | P_seq

let plan_of view p =
  match indexable view p with
  | Some (col, access) -> P_index (col, access)
  | None -> (
      match p with
      | Predicate.Or legs -> (
          match or_accesses view legs with
          | Some ((_ :: _) as pairs) -> P_or pairs
          | Some [] | None -> P_seq)
      | _ -> P_seq)

(* An index access on a tree-backed column is the range plan. *)
let kind_of view = function
  | P_index (col, _) when Option.is_some (Read_view.range_tree view ~column:col) -> Range_traverse col
  | P_index (col, _) -> Index_scan col
  | P_or pairs -> Or_index_scan (List.map fst pairs)
  | P_seq -> Seq_scan

let explain view p = kind_of view (plan_of view (fst (expand_covers view p)))

let plan_label = function
  | Index_scan c -> "index(" ^ c ^ ")"
  | Or_index_scan cs -> "or_index(" ^ String.concat "," cs ^ ")"
  | Range_traverse c -> "range_traverse(" ^ c ^ ")"
  | Seq_scan -> "seq"

let seq_scan view =
  let acc = Stdx.Vec.create () in
  Read_view.scan view (fun id _row -> Stdx.Vec.push acc id);
  Stdx.Vec.to_array acc

(* The tail every plan shares: drop tombstoned candidates, re-check the
   predicate when the plan does not answer it exactly ([recheck]),
   project, and account — per-query stats (this domain's pager delta
   since [before]), the executor.* metrics and the [executor.plan]
   trace event ([attrs] go between its epoch and candidate counts).

   Residual filtering on peeked rows is free of heap charges: an
   index-only scan does not touch the heap — visibility-map style —
   matching the paper's SELECT ID behaviour. *)
let finish view ~projection ~eval ~recheck ~before ~t0 ~attrs (plan, candidate_ids) =
  let candidate_ids = Read_view.live_only view candidate_ids in
  let row_ids =
    if recheck then
      Array.of_seq (Seq.filter (fun id -> eval (Read_view.peek_row view id)) (Array.to_seq candidate_ids))
    else candidate_ids
  in
  let rows =
    match projection with
    | Row_ids ->
        (* Returning ids still ships ~8 bytes per hit across the wire. *)
        Pager.charge_transfer (8 * Array.length row_ids);
        [||]
    | All_columns -> Array.map (Read_view.read_row view) row_ids
    | Columns positions -> Array.map (fun id -> Read_view.read_cols view id positions) row_ids
  in
  let wall_ns = Stdx.Clock.now_ns () -. t0 in
  let stats = Pager.diff_stats before (Pager.local_stats ()) in
  Obs.Metrics.incr
    (match plan with
    | Index_scan _ -> m_plan_index
    | Or_index_scan _ -> m_plan_or
    | Range_traverse _ -> m_plan_traverse
    | Seq_scan -> m_plan_seq);
  Obs.Metrics.add m_candidates (Array.length candidate_ids);
  Obs.Metrics.add m_returned (Array.length row_ids);
  Obs.Metrics.observe h_wall wall_ns;
  if Obs.Trace.is_enabled () then
    Obs.Trace.event "executor.plan"
      ~attrs:
        ((("plan", plan_label plan) :: ("epoch", string_of_int (Read_view.epoch view)) :: attrs)
        @ [
            ("candidates", string_of_int (Array.length candidate_ids));
            ("rows", string_of_int (Array.length row_ids));
          ]);
  { row_ids; rows; plan; wall_ns; stats }

(* The two-table plan: delegate to [Join], which owns bucket probing,
   pair normalization and the join.* metrics. Kept behind the executor
   so planning stays one surface. *)
let run_join = Join.run

let run_view view ~projection p =
  Obs.Metrics.incr m_queries;
  Obs.Trace.with_span "executor.run_view" @@ fun () ->
  let before = Pager.local_stats () in
  let t0 = Stdx.Clock.now_ns () in
  let p, expansion = expand_covers view p in
  let eval = Predicate.compile (Read_view.schema view) p in
  (* One access's index lookups, in list order. *)
  let lookups : access -> int array list = function
    | `Eq (idx, v) -> [ Table_index.lookup idx v ]
    | `In (idx, vs) -> List.map (Table_index.lookup idx) vs
    | `Range (idx, lo, hi) -> [ Table_index.range idx ?lo ?hi () ]
  in
  let plan = plan_of view p in
  (* An equality or range access returns its ids verbatim; multi-key
     plans (IN, OR) union with sort + dedup. *)
  let candidates =
    match plan with
    | P_index (_, `Eq (idx, v)) -> Table_index.lookup idx v
    | P_index (_, `Range (idx, lo, hi)) -> Table_index.range idx ?lo ?hi ()
    | P_index (_, `In (idx, vs)) -> Table_index.lookup_many idx vs
    | P_or pairs -> Postings.union_ids (List.concat_map (fun (_, access) -> lookups access) pairs)
    | P_seq -> seq_scan view
  in
  (* Index results need no re-check when a pure Eq/In/Range leg is the
     whole predicate. An OR plan always re-checks: each leg's access may
     over-approximate its leg. *)
  let recheck =
    match (plan, p) with
    | P_index (col, _), (Predicate.Eq (c, _) | Predicate.In (c, _) | Predicate.Range (c, _, _)) ->
        c <> col
    | _ -> true
  in
  let attrs =
    match expansion with
    | None -> []
    | Some e ->
        Obs.Metrics.add m_trav_nodes e.visited;
        Obs.Metrics.add m_trav_leaves e.leaves;
        Obs.Metrics.observe h_trav_roots (float_of_int e.roots);
        Obs.Metrics.observe h_trav_leaves (float_of_int e.leaves);
        [
          ("roots", string_of_int e.roots);
          ("nodes_visited", string_of_int e.visited);
          ("leaf_probes", string_of_int e.leaves);
        ]
  in
  finish view ~projection ~eval ~recheck ~before ~t0 ~attrs (kind_of view plan, candidates)

(* Kept for callers that ship the cover apart from the predicate: the
   same plan as [run_view] over the cover leg ANDed with [p]. *)
let run_traverse view ~tree ~tag_column ~roots ~projection p =
  match Read_view.range_tree view ~column:tag_column with
  | Some t when t == tree ->
      let cover = Predicate.In (tag_column, Array.to_list (Array.map (fun r -> Value.Int r) roots)) in
      run_view view ~projection (Predicate.And [ cover; p ])
  | Some _ | None -> invalid_arg "Executor.run_traverse: tree is not the view's tree for tag_column"
