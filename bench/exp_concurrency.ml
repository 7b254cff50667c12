(* Aggregate query throughput of the snapshot-read path: one frozen
   epoch view served by D reader domains at once (Fig. 4 workload —
   SPARTA rows, Poisson λ=1000 tags, the paper's query mix).

   The container pins the build to one core, so wall-clock cannot show
   the win; the headline metric is the same simulated-storage clock
   every latency figure uses. Each query's [stats] is its own
   domain-local pager delta (exact under concurrency — that is the
   point of the atomic/DLS accounting), so a domain's modeled busy
   time is the sum of its queries' sim_ns and the fleet's makespan is
   the slowest domain. Aggregate modeled throughput is
   queries / makespan; round-robin placement of an even mix should
   scale it near-linearly in D.

   Emits BENCH_concurrency.json so later PRs have a scaling trajectory
   to compare against. *)

open Sqldb

let domain_counts = [ 1; 2; 4 ]
let json_obj = Bench_util.json_obj

type domain_run = { served : int; busy_ns : float }

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

(* Serve [queries] across [domains] reader domains, all against the
   same frozen view. Returns per-domain modeled busy time plus the
   wall clock of the whole fan-out. *)
let serve ~edb ~view ~domains queries =
  let slices = assign ~domains queries in
  let slice d = slices.(d) in
  let serve_slice d () =
    List.fold_left
      (fun acc (q : Sparta.Query_gen.query) ->
        let r = Wre.Encrypted_db.search_ids ~view edb ~column:q.column q.value in
        { served = acc.served + 1; busy_ns = acc.busy_ns +. r.Executor.stats.sim_ns })
      { served = 0; busy_ns = 0.0 }
      (slice d)
  in
  let (own, others), wall_ns =
    Stdx.Clock.time_it (fun () ->
        let spawned = Array.init (domains - 1) (fun i -> Domain.spawn (serve_slice (i + 1))) in
        let own = serve_slice 0 () in
        (own, Array.map Domain.join spawned))
  in
  (Array.append [| own |] others, wall_ns)

let run ~rows:n ~n_queries () =
  Bench_util.heading
    (Printf.sprintf "Concurrency: snapshot reads, %d rows, poisson-1000, %d queries, domains %s" n
       n_queries
       (String.concat "/" (List.map string_of_int domain_counts)));
  let rows = Bench_util.generate_rows n in
  let dist_of = Bench_util.dist_of_rows rows in
  let db, edb, _ = Bench_util.build_encrypted ~kind:(Wre.Scheme.Poisson 1000.0) ~dist_of rows in
  let queries = Bench_util.make_queries ~dist_of ~n:n_queries in
  let view = Wre.Encrypted_db.freeze edb in
  (* Warm protocol: one priming pass fills the buffer pool, so every
     measured run pays the same probe/row/transfer charges and domain
     counts are compared on identical footing (no cross-domain races
     over who pays a cold miss). *)
  ignore (db : Database.t);
  List.iter
    (fun (q : Sparta.Query_gen.query) ->
      ignore (Wre.Encrypted_db.search_ids ~view edb ~column:q.column q.value))
    queries;
  (if Sys.getenv_opt "WRE_BENCH_DEBUG" <> None then
     let costs =
       List.map
         (fun (q : Sparta.Query_gen.query) ->
           let r = Wre.Encrypted_db.search_ids ~view edb ~column:q.column q.value in
           (r.Executor.stats.sim_ns, q.column, q.value, q.expected, r.Executor.stats.rows_examined))
         queries
       |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a)
     in
     List.iteri
       (fun i (s, c, v, e, re) ->
         if i < 8 then
           Printf.printf "%.3f ms  %s=%s expected=%d rows_examined=%d\n" (s /. 1e6) c v e re)
       costs);
  let t =
    Stdx.Table_fmt.create
      [ "domains"; "makespan (sim ms)"; "modeled qps"; "wall (ms)"; "speedup vs 1d" ]
  in
  let results =
    List.map
      (fun domains ->
        let per_domain, wall_ns = serve ~edb ~view ~domains queries in
        if Sys.getenv_opt "WRE_BENCH_DEBUG" <> None then
          Array.iteri
            (fun i r ->
              Printf.printf "D=%d dom%d served=%d busy=%.3f ms\n" domains i r.served
                (r.busy_ns /. 1e6))
            per_domain;
        let makespan_ns = Array.fold_left (fun m r -> Float.max m r.busy_ns) 0.0 per_domain in
        let served = Array.fold_left (fun s r -> s + r.served) 0 per_domain in
        assert (served = n_queries);
        let qps = float_of_int n_queries /. (makespan_ns /. 1e9) in
        (domains, makespan_ns, qps, wall_ns))
      domain_counts
  in
  let qps_of d = let _, _, q, _ = List.find (fun (d', _, _, _) -> d' = d) results in q in
  List.iter
    (fun (domains, makespan_ns, qps, wall_ns) ->
      Stdx.Table_fmt.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.1f" (makespan_ns /. 1e6);
          Printf.sprintf "%.1f" qps;
          Printf.sprintf "%.1f" (wall_ns /. 1e6);
          Printf.sprintf "%.2fx" (qps /. qps_of 1);
        ])
    results;
  Stdx.Table_fmt.print t;
  let metrics =
    List.concat_map
      (fun (domains, makespan_ns, qps, wall_ns) ->
        [
          (Printf.sprintf "modeled_qps_%dd" domains, Printf.sprintf "%.2f" qps);
          (Printf.sprintf "makespan_sim_ms_%dd" domains, Printf.sprintf "%.3f" (makespan_ns /. 1e6));
          (Printf.sprintf "wall_ms_%dd" domains, Printf.sprintf "%.1f" (wall_ns /. 1e6));
        ])
      results
    @ [ ("speedup_modeled_4d_vs_1d", Printf.sprintf "%.3f" (qps_of 4 /. qps_of 1)) ]
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
              ("protocol", "\"warm, snapshot view, round-robin\"");
              ( "domain_counts",
                "[" ^ String.concat ", " (List.map string_of_int domain_counts) ^ "]" );
              ("cores", string_of_int (Domain.recommended_domain_count ()));
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_concurrency.json" json;
  Printf.printf "wrote BENCH_concurrency.json (modeled 4-domain speedup %.2fx)\n"
    (qps_of 4 /. qps_of 1)
