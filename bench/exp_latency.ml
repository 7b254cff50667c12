(* Figures 4-7 — query response time by result size, for the paper's
   six configurations (plaintext, Fixed 100/1000, Poisson lambda
   100/1000/10000), under the four protocols:

     Fig 4: cold cache,  SELECT ID
     Fig 5: cold cache,  SELECT *
     Fig 6: warm cache,  SELECT ID
     Fig 7: warm cache,  SELECT *

   Each scheme's database is built once and reused for all four
   figures; the reported metric is the modeled storage latency
   (misses x disk + CPU, derived from the pager's counts), the axis the
   paper's figures vary, and every heading says so. *)

type series = {
  name : string;
  fig4 : float option array;
  fig5 : float option array;
  fig6 : float option array;
  fig7 : float option array;
  cold_total_ms : float;
  warm_total_ms : float;
}

let run_scheme ~rows ~dist_of ~queries (name, kind_opt) =
  Printf.printf "  building %-14s ...%!" name;
  (* The scheme's buffer pool, for all four figures. *)
  let cache = Sqldb.Pager.cache () in
  let (run_all : Sqldb.Executor.projection -> Bench_util.cache_mode -> Bench_util.query_cost list)
      =
    match kind_opt with
    | None ->
        let table, _ = Bench_util.build_plain rows in
        fun projection mode ->
          Bench_util.run_plain_queries ~cache ~table ~projection ~mode queries
    | Some kind ->
        let edb, _ = Bench_util.build_encrypted ~kind ~dist_of rows in
        fun projection mode ->
          Bench_util.run_encrypted_queries ~cache ~edb ~projection ~mode queries
  in
  (* Cold runs first (each query clears the cache); a full SELECT * pass
     then fills the buffer pool so the warm runs really are warm — the
     paper's "cache was left alone" scenario. *)
  let cold_ids = run_all Sqldb.Executor.Row_ids Bench_util.Cold in
  let cold_star = run_all Sqldb.Executor.All_columns Bench_util.Cold in
  let _warmup = run_all Sqldb.Executor.All_columns Bench_util.Warm in
  let warm_ids = run_all Sqldb.Executor.Row_ids Bench_util.Warm in
  let warm_star = run_all Sqldb.Executor.All_columns Bench_util.Warm in
  Printf.printf " done\n%!";
  let total costs =
    List.fold_left (fun acc (c : Bench_util.query_cost) -> acc +. c.sim_ms) 0.0 costs
  in
  {
    name;
    fig4 = Bench_util.by_bucket cold_ids;
    fig5 = Bench_util.by_bucket cold_star;
    fig6 = Bench_util.by_bucket warm_ids;
    fig7 = Bench_util.by_bucket warm_star;
    cold_total_ms = total cold_star;
    warm_total_ms = total warm_star;
  }

let print_figure title pick (all : series list) =
  Bench_util.heading title;
  let t =
    Stdx.Table_fmt.create
      ("scheme \\ result size"
      :: List.init 5 (fun b -> Sparta.Query_gen.bucket_label b ^ " (ms)"))
  in
  List.iter
    (fun s ->
      Stdx.Table_fmt.add_row t (s.name :: Array.to_list (Array.map Bench_util.fmt_opt (pick s))))
    all;
  Stdx.Table_fmt.print t

(* One scheme's executor latency percentiles + plan and salt-cache
   counters, pulled from the Obs registry its run just filled (the
   registry is reset before each scheme). The figures time the server
   query alone, so the proxy's query.* phases and the decrypt counters
   stay empty here and are not written. *)
let scheme_metrics_json () =
  let counter name = string_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name)) in
  Bench_util.json_obj
    (("executor.wall_ns", Bench_util.json_histogram "executor.wall_ns")
    :: List.map
         (fun c -> (c, counter c))
         [
           "executor.queries_total";
           "executor.plan_index_total";
           "executor.plan_or_index_total";
           "executor.plan_seq_total";
           "column_enc.salt_cache_hits_total";
           "column_enc.salt_cache_misses_total";
         ])

(* [per_scheme] holds one {!scheme_metrics_json} object per scheme
   name. The {"name","config","metrics"} shape matches
   BENCH_ingest.json. *)
let write_query_json ~rows ~n_queries per_scheme =
  let json =
    Bench_util.json_obj
      [
        ("name", "\"query\"");
        ( "config",
          Bench_util.json_obj
            [
              ("rows", string_of_int rows);
              ("queries_per_protocol", string_of_int n_queries);
              ( "schemes",
                "["
                ^ String.concat ", "
                    (List.map (fun (n, _) -> Printf.sprintf "%S" n) Bench_util.schemes_for_latency)
                ^ "]" );
            ] );
        ("metrics", Bench_util.json_obj per_scheme);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_query.json" json;
  Printf.printf "wrote BENCH_query.json (per-phase percentiles from the metrics registry)\n"

let run ~rows:n_rows ~n_queries () =
  Bench_util.heading
    (Printf.sprintf "Figures 4-7: modeled query latency, %d rows, %d queries per protocol" n_rows
       n_queries);
  let rows = Bench_util.generate_rows n_rows in
  let dist_of = Bench_util.dist_of_rows rows in
  let queries = Bench_util.make_queries ~dist_of ~n:n_queries in
  (* A clean registry per scheme, so each BENCH_query.json entry holds
     that scheme's queries alone. *)
  let all, per_scheme =
    List.split
      (List.map
         (fun ((name, _) as scheme) ->
           Obs.Metrics.reset_all ();
           let s = run_scheme ~rows ~dist_of ~queries scheme in
           (s, (name, scheme_metrics_json ())))
         Bench_util.schemes_for_latency)
  in
  print_figure "Figure 4: cold cache, SELECT ID, modeled ms" (fun s -> s.fig4) all;
  print_figure "Figure 5: cold cache, SELECT *, modeled ms" (fun s -> s.fig5) all;
  print_figure "Figure 6: warm cache, SELECT ID, modeled ms" (fun s -> s.fig6) all;
  print_figure "Figure 7: warm cache, SELECT *, modeled ms" (fun s -> s.fig7) all;
  (* The paper's headline: Poisson within ~27% of plaintext. *)
  (match
     ( List.find_opt (fun s -> s.name = "plaintext") all,
       List.find_opt (fun s -> s.name = "poisson-100") all )
   with
  | Some p, Some w ->
      Printf.printf
        "\nSELECT * modeled totals vs plaintext (paper claim: Poisson within ~27%%):\n\
        \  cold: plaintext %.1f modeled ms, poisson-100 %.1f modeled ms (+%.0f%%)\n\
        \  warm: plaintext %.1f modeled ms, poisson-100 %.1f modeled ms (+%.0f%%)\n"
        p.cold_total_ms w.cold_total_ms
        (100.0 *. ((w.cold_total_ms /. p.cold_total_ms) -. 1.0))
        p.warm_total_ms w.warm_total_ms
        (100.0 *. ((w.warm_total_ms /. p.warm_total_ms) -. 1.0))
  | _ -> ());
  write_query_json ~rows:n_rows ~n_queries per_scheme
