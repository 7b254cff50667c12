(* Two-table equi-join plans over frozen read views: the plaintext
   hash join (Equi) and the tag-bucket join the WRE proxy compiles
   encrypted joins into (Buckets). See join.mli for the contracts. *)

type spec =
  | Equi
  | Buckets of (Value.t list * Value.t list) array

type plan = { build_left : bool; buckets : int }

type result = {
  pairs : (int * int) array;
  bucket_pairs : int array;
  plan : plan;
  wall_ns : float;
  stats : Pager.stats;
}

let m_joins = Obs.Metrics.counter "join.queries_total"
let m_buckets = Obs.Metrics.counter "join.buckets_total"
let m_candidates = Obs.Metrics.counter "join.pairs_candidate_total"
let h_wall = Obs.Metrics.histogram "join.wall_ns"

(* Sorted, deduplicated pair set: the canonical order the result
   ships in, and what makes multiplicities exact when bucketized tag
   sharing emits the same pair from several buckets. *)
let compare_pairs ((a1, b1) : int * int) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let normalize_pairs pairs =
  Array.stable_sort compare_pairs pairs;
  let n = Array.length pairs in
  if n = 0 then pairs
  else begin
    (* Compact the duplicates in place: [kept] pairs are distinct so far. *)
    let kept = ref 1 in
    for i = 1 to n - 1 do
      if compare_pairs pairs.(i) pairs.(!kept - 1) <> 0 then begin
        pairs.(!kept) <- pairs.(i);
        incr kept
      end
    done;
    Array.sub pairs 0 !kept
  end

(* value -> row-id list from one scan ([Read_view.scan] surfaces live
   rows only). NULL is skipped: SQL equality never matches it. *)
let hash_of_view view col =
  let cidx = Schema.column_index (Read_view.schema view) col in
  let tbl = Hashtbl.create 1024 in
  Read_view.scan view (fun id row ->
      let v = row.(cidx) in
      if v <> Value.Null then
        Hashtbl.replace tbl v (id :: Option.value ~default:[] (Hashtbl.find_opt tbl v)));
  tbl

(* Build from the smaller side, stream the larger side through it.
   Build ids were accumulated by a descending-id cons, probe ids arrive
   ascending — order is irrelevant, [normalize_pairs] canonicalizes. *)
let run_equi ~left ~right ~on_left ~on_right ~build_left =
  let build_view, probe_view, build_col, probe_col =
    if build_left then (left, right, on_left, on_right) else (right, left, on_right, on_left)
  in
  let tbl = hash_of_view build_view build_col in
  let pidx = Schema.column_index (Read_view.schema probe_view) probe_col in
  let out = Stdx.Vec.create () in
  Read_view.scan probe_view (fun id row ->
      match Hashtbl.find_opt tbl row.(pidx) with
      | None -> ()
      | Some ids ->
          List.iter
            (fun b -> Stdx.Vec.push out (if build_left then (b, id) else (id, b)))
            ids);
  Stdx.Vec.to_array out

(* Per-side posting lookup for bucket keys: the ON-column index when
   one exists, else one value->ids table built by a single scan before
   the first bucket is probed. Either way the result is sorted,
   deduplicated, live. *)
let postings view col =
  match Read_view.index_on view ~column:col with
  | Some idx -> fun keys -> Read_view.live_only view (Table_index.lookup_many idx keys)
  | None ->
      let tbl = hash_of_view view col in
      fun keys ->
        Postings.union_ids
          (List.map (fun k -> Array.of_list (Option.value ~default:[] (Hashtbl.find_opt tbl k))) keys)

let cross lids rids =
  let nl = Array.length lids and nr = Array.length rids in
  if nl = 0 || nr = 0 then [||]
  else begin
    let out = Array.make (nl * nr) (0, 0) in
    for i = 0 to nl - 1 do
      for j = 0 to nr - 1 do
        out.((i * nr) + j) <- (lids.(i), rids.(j))
      done
    done;
    out
  end

let run ~left ~right ~on_left ~on_right spec =
  Obs.Metrics.incr m_joins;
  Obs.Trace.with_span "join.run" @@ fun () ->
  let before = Pager.local_stats () in
  let t0 = Stdx.Clock.now_ns () in
  let build_left = Read_view.live_count left <= Read_view.live_count right in
  let raw, bucket_pairs =
    match spec with
    | Equi -> (run_equi ~left ~right ~on_left ~on_right ~build_left, [||])
    | Buckets bs ->
        Obs.Metrics.add m_buckets (Array.length bs);
        let post_left = postings left on_left and post_right = postings right on_right in
        let outcomes =
          Array.map (fun (lkeys, rkeys) -> cross (post_left lkeys) (post_right rkeys)) bs
        in
        (Array.concat (Array.to_list outcomes), Array.map Array.length outcomes)
  in
  Obs.Metrics.add m_candidates (Array.length raw);
  let pairs = normalize_pairs raw in
  (* Shipping (left id, right id) pairs costs ~16 bytes each on the
     wire, like the executor's 8-bytes-per-id charge for Row_ids. *)
  Pager.charge_transfer (16 * Array.length pairs);
  let wall_ns = Stdx.Clock.now_ns () -. t0 in
  let stats = Pager.diff_stats before (Pager.local_stats ()) in
  let buckets = match spec with Equi -> 0 | Buckets bs -> Array.length bs in
  Obs.Metrics.observe h_wall wall_ns;
  if Obs.Trace.is_enabled () then
    Obs.Trace.event "join.plan"
      ~attrs:
        [
          ("mode", match spec with Equi -> "equi" | Buckets _ -> "tag_buckets");
          ("build", if build_left then "left" else "right");
          ("buckets", string_of_int buckets);
          ("candidates", string_of_int (Array.length pairs));
          ("epochs",
           Printf.sprintf "%d/%d" (Read_view.epoch left) (Read_view.epoch right));
        ];
  { pairs; bucket_pairs; plan = { build_left; buckets }; wall_ns; stats }
