(* ESEDS range-query experiment: the encrypted boundary-tree traversal
   plan vs the flat bucket-tag IN-list, over one range-indexed column.

   Both plans return byte-identical rows (asserted here and enforced by
   the differential oracle); what differs is the wire and the server
   work. The flat plan ships one bucket tag per overlapping bucket —
   O(buckets-in-range) tokens whose co-occurrence hands a transcript
   adversary full contiguous runs of the hidden bucket order. The
   traversal plan ships the O(log B) canonical-cover roots and lets the
   server expand them over the pseudonymous node table.

   Attacks.Range_leakage runs the greedy order-reconstruction attack on
   both plans' transcripts; BENCH_range.json carries the comparison and
   the [traversal_beats_flat_tags] gate (CI smoke): the traversal must
   ship fewer tokens per query on average AND leak no more order than
   the flat baseline. *)

open Sqldb

let json_obj = Bench_util.json_obj
let buckets = 64
let max_score = 10_000

let range_schema =
  Schema.create
    [
      { Schema.name = "id"; ty = Value.TInt; nullable = false };
      { Schema.name = "lname"; ty = Value.TText; nullable = false };
      { Schema.name = "score"; ty = Value.TInt; nullable = false };
    ]

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 |> max 0))

(* In-order rank of every node of the boundary tree: the hidden order a
   transcript adversary tries to reconstruct. (Leaves appear in bucket
   order; internal nodes interleave between their subtrees.) *)
let inorder_ranks nodes =
  let rank = Array.make (Array.length nodes) 0 in
  let next = ref 0 in
  let rec go i =
    let nd = nodes.(i) in
    if nd.Range_tree.left >= 0 then go nd.Range_tree.left;
    rank.(i) <- !next;
    incr next;
    if nd.Range_tree.right >= 0 then go nd.Range_tree.right
  in
  go 0;
  rank

let run ~rows ~n_queries () =
  let n = min rows 50_000 in
  if n < rows then Printf.printf "(range experiment capped at %d rows)\n" n;
  Bench_util.heading
    (Printf.sprintf "ESEDS range traversal vs flat bucket tags (%d rows, %d buckets, %d queries)"
       n buckets n_queries);
  let g = Stdx.Prng.create Bench_util.data_seed in
  (* Skewed scores (product of two uniforms): equi-depth boundaries are
     uneven, the regime the tree is trained for. *)
  let scores =
    Array.init n (fun _ ->
        Int64.of_int (Stdx.Prng.int g 100 * Stdx.Prng.int g (max_score / 100)))
  in
  let table_rows =
    Array.mapi
      (fun i s ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text (Printf.sprintf "name%d" (Stdx.Prng.int g 200));
          Value.Int s;
        |])
      scores
  in
  let db = Database.create () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let dist =
    Dist.Empirical.of_values
      (Seq.map
         (fun (r : Value.t array) -> match r.(1) with Value.Text s -> s | _ -> assert false)
         (Array.to_seq table_rows))
  in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"r" ~plain_schema:range_schema ~key_column:"id"
      ~encrypted_columns:[ "lname" ] ~kind:(Wre.Scheme.Poisson 80.0) ~master
      ~range_columns:[ ("score", buckets) ]
      ~range_training:(fun _ -> scores)
      ~dist_of:(fun _ -> dist) ~seed:2L ()
  in
  ignore (Wre.Encrypted_db.insert_batch edb table_rows);
  let ri = Wre.Encrypted_db.range_index edb "score" in
  let rs = Wre.Encrypted_db.range_struct edb "score" in
  let tree = Wre.Range_struct.tree rs in
  let nodes = Wre.Range_struct.nodes rs in
  let node_rank = inorder_ranks nodes in
  let rank_of_tag = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i nd -> Hashtbl.replace rank_of_tag nd.Range_tree.tag node_rank.(i)) nodes;
  (* Query workload: random ranges, mixed widths (a quarter of them
     narrow), over the score domain. *)
  let qg = Stdx.Prng.create 11L in
  let queries =
    Array.init n_queries (fun _ ->
        let lo = Stdx.Prng.int qg max_score in
        let width =
          if Stdx.Prng.int qg 4 = 0 then Stdx.Prng.int qg 50
          else Stdx.Prng.int qg (max_score / 3)
        in
        (Int64.of_int lo, Int64.of_int (lo + width)))
  in
  (* Transcripts: what each plan ships per query. Flat tokens are the
     overlapped bucket ids (already labeled in hidden order); traversal
     tokens are the cover roots' in-order node ranks. *)
  let flat_ts = ref [] and trav_ts = ref [] in
  let flat_tokens = ref 0 and trav_tokens = ref 0 and trav_nodes = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      let cover = Wre.Range_struct.cover rs ~lo:(Some lo) ~hi:(Some hi) in
      let first = cover.Wre.Range_struct.first_bucket
      and last = cover.Wre.Range_struct.last_bucket in
      let flat = Array.init (max 0 (last - first + 1)) (fun i -> first + i) in
      let trav =
        Array.map
          (fun root -> Hashtbl.find rank_of_tag root)
          cover.Wre.Range_struct.roots
      in
      flat_tokens := !flat_tokens + Array.length flat;
      trav_tokens := !trav_tokens + Array.length trav;
      Array.iter
        (fun root ->
          match Range_tree.traverse tree ~root with
          | Some (_, visited) -> trav_nodes := !trav_nodes + visited
          | None -> assert false)
        cover.Wre.Range_struct.roots;
      flat_ts := flat :: !flat_ts;
      trav_ts := trav :: !trav_ts)
    queries;
  let flat_leak = Attacks.Range_leakage.measure ~n_tokens:buckets ~transcripts:!flat_ts in
  let trav_leak =
    Attacks.Range_leakage.measure ~n_tokens:(Array.length nodes) ~transcripts:!trav_ts
  in
  (* Server-side latency of both plans over the same frozen view,
     asserting byte-identical answers throughout. The traversal is what
     the proxy ships (the cover leg, expanded by the executor over the
     table's tree); the flat IN-list is the reference. *)
  let view = Wre.Encrypted_db.freeze edb in
  let run_pair (lo, hi) =
    let tags = Wre.Range_index.tags_for_range ri ~lo:(Some lo) ~hi:(Some hi) in
    let pred =
      Predicate.In (Wre.Encrypted_db.rtag_column "score", List.map (fun t -> Value.Int t) tags)
    in
    let cover = Wre.Encrypted_db.range_predicate edb ~column:"score" ~lo:(Some lo) ~hi:(Some hi) in
    let flat = Executor.run_view view ~projection:Executor.Row_ids pred in
    let trav = Executor.run_view view ~projection:Executor.Row_ids cover in
    assert (trav.Executor.plan = Executor.Range_traverse (Wre.Encrypted_db.rtag_column "score"));
    assert (trav.Executor.row_ids = flat.Executor.row_ids);
    (flat.Executor.wall_ns, trav.Executor.wall_ns)
  in
  let fw = Array.make n_queries 0.0 and tw = Array.make n_queries 0.0 in
  Array.iteri
    (fun i q ->
      let f, t = run_pair q in
      fw.(i) <- f;
      tw.(i) <- t)
    queries;
  Array.sort compare fw;
  Array.sort compare tw;
  let mean_flat = float_of_int !flat_tokens /. float_of_int n_queries in
  let mean_trav = float_of_int !trav_tokens /. float_of_int n_queries in
  let t =
    Stdx.Table_fmt.create
      [ "plan"; "tokens/query"; "p50 (ms)"; "p99 (ms)"; "pair acc"; "rank acc" ]
  in
  Stdx.Table_fmt.add_row t
    [
      "flat-tags";
      Printf.sprintf "%.1f" mean_flat;
      Printf.sprintf "%.3f" (percentile fw 50.0 /. 1e6);
      Printf.sprintf "%.3f" (percentile fw 99.0 /. 1e6);
      Printf.sprintf "%.3f" flat_leak.Attacks.Range_leakage.pair_accuracy;
      Printf.sprintf "%.3f" flat_leak.Attacks.Range_leakage.rank_accuracy;
    ];
  Stdx.Table_fmt.add_row t
    [
      "traversal";
      Printf.sprintf "%.1f" mean_trav;
      Printf.sprintf "%.3f" (percentile tw 50.0 /. 1e6);
      Printf.sprintf "%.3f" (percentile tw 99.0 /. 1e6);
      Printf.sprintf "%.3f" trav_leak.Attacks.Range_leakage.pair_accuracy;
      Printf.sprintf "%.3f" trav_leak.Attacks.Range_leakage.rank_accuracy;
    ];
  Stdx.Table_fmt.print t;
  (* The gate: fewer tokens on the wire, and no more order leaked than
     the flat baseline (small epsilon for attack nondeterminism across
     token-count differences). *)
  let traversal_beats_flat_tags =
    mean_trav < mean_flat
    && trav_leak.Attacks.Range_leakage.pair_accuracy
       <= flat_leak.Attacks.Range_leakage.pair_accuracy +. 0.05
  in
  let timing_metrics =
    [
      ("flat_p50_ms", Printf.sprintf "%.4f" (percentile fw 50.0 /. 1e6));
      ("flat_p99_ms", Printf.sprintf "%.4f" (percentile fw 99.0 /. 1e6));
      ("traversal_p50_ms", Printf.sprintf "%.4f" (percentile tw 50.0 /. 1e6));
      ("traversal_p99_ms", Printf.sprintf "%.4f" (percentile tw 99.0 /. 1e6));
    ]
  in
  let json =
    json_obj
      [
        ("name", "\"range\"");
        ( "config",
          json_obj
            [
              ("rows", string_of_int n);
              ("cores", string_of_int (Domain.recommended_domain_count ()));
              ("buckets", string_of_int buckets);
              ("queries", string_of_int n_queries);
              ("tree_nodes", string_of_int (Array.length nodes));
              ("tree_depth", string_of_int (Wre.Range_struct.depth rs));
              ("baseline", "\"flat bucket-tag IN-list (one token per overlapped bucket)\"");
            ] );
        ( "metrics",
          json_obj
            ([
               ("flat_mean_tokens_per_query", Printf.sprintf "%.2f" mean_flat);
               ("traversal_mean_tokens_per_query", Printf.sprintf "%.2f" mean_trav);
               ( "traversal_mean_nodes_visited",
                 Printf.sprintf "%.2f" (float_of_int !trav_nodes /. float_of_int n_queries) );
               ( "flat_attack_pair_accuracy",
                 Printf.sprintf "%.4f" flat_leak.Attacks.Range_leakage.pair_accuracy );
               ( "flat_attack_rank_accuracy",
                 Printf.sprintf "%.4f" flat_leak.Attacks.Range_leakage.rank_accuracy );
               ( "traversal_attack_pair_accuracy",
                 Printf.sprintf "%.4f" trav_leak.Attacks.Range_leakage.pair_accuracy );
               ( "traversal_attack_rank_accuracy",
                 Printf.sprintf "%.4f" trav_leak.Attacks.Range_leakage.rank_accuracy );
             ]
            @ timing_metrics
            @ [
                ( "traversal_beats_flat_tags",
                  if traversal_beats_flat_tags then "true" else "false" );
              ]) );
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_range.json" json;
  Printf.printf "wrote BENCH_range.json (traversal beats flat tags: %b)\n"
    traversal_beats_flat_tags
