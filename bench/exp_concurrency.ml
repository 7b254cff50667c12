(* Aggregate query throughput of the snapshot-read path: one frozen
   epoch view served by D reader domains at once (Fig. 4 workload —
   SPARTA rows, Poisson λ=1000 tags, the paper's query mix).

   Each domain count serves the same query list, split across the
   domains by longest-processing-time placement, and the whole fan-out
   is timed on the wall clock: throughput is queries / wall time, and
   the speedup is D domains' throughput over one domain's. The wall
   clock can only show what the cores of the machine allow, so the
   JSON records [cores] beside it.

   Emits BENCH_concurrency.json so later PRs have a scaling trajectory
   to compare against. *)

let domain_counts = [ 1; 2; 4 ]
let json_obj = Bench_util.json_obj

(* Longest-processing-time placement: sort by expected result size
   (the dispatcher knows every value's plaintext count from the
   profiled distribution) and give each query to the least-loaded
   domain. Round-robin is a trap here — the SPARTA query mix cycles
   result-size buckets with a fixed stride, and when that stride
   divides the domain count every heavy query lands on one domain. *)
let assign ~domains queries =
  let loads = Array.make domains 0.0 in
  let slices = Array.make domains [] in
  List.iter
    (fun (q : Sparta.Query_gen.query) ->
      let d = ref 0 in
      for i = 1 to domains - 1 do
        if loads.(i) < loads.(!d) then d := i
      done;
      loads.(!d) <- loads.(!d) +. float_of_int (max 1 q.expected);
      slices.(!d) <- q :: slices.(!d))
    (List.stable_sort
       (fun (a : Sparta.Query_gen.query) b -> compare b.expected a.expected)
       queries);
  Array.map List.rev slices

(* One query's server answer over the shared view: [SELECT ID] of the
   rewritten tag IN-list. *)
let search ~edb ~view (q : Sparta.Query_gen.query) =
  ignore
    (Sqldb.Executor.run_view view ~projection:Sqldb.Executor.Row_ids
       (Wre.Encrypted_db.search_predicate edb ~column:q.column q.value))

(* Serve [queries] across [domains] reader domains, all against the
   same frozen view. Returns the number of queries served and the wall
   clock of the whole fan-out. *)
let serve ~edb ~view ~domains queries =
  let slices = assign ~domains queries in
  let serve_slice d () =
    List.iter (search ~edb ~view) slices.(d);
    List.length slices.(d)
  in
  Stdx.Clock.time_it (fun () ->
      let spawned = Array.init (domains - 1) (fun i -> Domain.spawn (serve_slice (i + 1))) in
      let own = serve_slice 0 () in
      Array.fold_left (fun n d -> n + Domain.join d) own spawned)

let run ~rows:n ~n_queries () =
  Bench_util.heading
    (Printf.sprintf "Concurrency: snapshot reads, %d rows, poisson-1000, %d queries, domains %s" n
       n_queries
       (String.concat "/" (List.map string_of_int domain_counts)));
  let rows = Bench_util.generate_rows n in
  let dist_of = Bench_util.dist_of_rows rows in
  let edb, _ = Bench_util.build_encrypted ~kind:(Wre.Scheme.Poisson 1000.0) ~dist_of rows in
  let queries = Bench_util.make_queries ~dist_of ~n:n_queries in
  let view = Wre.Encrypted_db.freeze edb in
  (* Warm protocol: one priming pass fills the CPU caches, so every
     measured run starts from the same state and no domain count pays a
     first touch the others do not. *)
  List.iter (search ~edb ~view) queries;
  let results =
    List.map
      (fun domains ->
        let served, wall_ns = serve ~edb ~view ~domains queries in
        assert (served = n_queries);
        (domains, wall_ns, float_of_int n_queries /. (wall_ns /. 1e9)))
      domain_counts
  in
  let qps_of d = let _, _, q = List.find (fun (d', _, _) -> d' = d) results in q in
  let t = Stdx.Table_fmt.create [ "domains"; "wall (ms)"; "wall qps"; "speedup vs 1d" ] in
  List.iter
    (fun (domains, wall_ns, qps) ->
      Stdx.Table_fmt.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.1f" (wall_ns /. 1e6);
          Printf.sprintf "%.1f" qps;
          Printf.sprintf "%.2fx" (qps /. qps_of 1);
        ])
    results;
  Stdx.Table_fmt.print t;
  let metrics =
    List.concat_map
      (fun (domains, wall_ns, qps) ->
        [
          (Printf.sprintf "wall_ms_%dd" domains, Printf.sprintf "%.1f" (wall_ns /. 1e6));
          (Printf.sprintf "wall_qps_%dd" domains, Printf.sprintf "%.2f" qps);
        ])
      results
    @ [ ("speedup_wall_4d_vs_1d", Printf.sprintf "%.3f" (qps_of 4 /. qps_of 1)) ]
  in
  let json =
    json_obj
      [
        ("name", "\"concurrency\"");
        ( "config",
          json_obj
            [
              ("rows", string_of_int n);
              ("queries", string_of_int n_queries);
              ("scheme", "\"poisson-1000\"");
              ("protocol", "\"warm, snapshot view, longest-processing-time placement\"");
              ( "domain_counts",
                "[" ^ String.concat ", " (List.map string_of_int domain_counts) ^ "]" );
              ("cores", string_of_int (Domain.recommended_domain_count ()));
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_concurrency.json" json;
  Printf.printf "wrote BENCH_concurrency.json (wall 4-domain speedup %.2fx)\n"
    (qps_of 4 /. qps_of 1)
