(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablations listed in DESIGN.md section 4.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- --rows 20000 figs

   Experiments: table1 creation fig2 fig4..fig7 (figs) fig8 fig9 (fp)
                aliasing attacks indcuda lambda_sweep updates
                index_ablation correlation micro ingest recovery
                concurrency server join range freeze all *)

let usage () =
  print_endline
    "usage: main.exe [--rows N] [--queries N] [--trials N] \
     [table1|fig2|figs|fp|aliasing|attacks|indcuda|lambda_sweep|updates|index_ablation|correlation|micro|ingest|recovery|concurrency|server|join|range|freeze|all]...";
  exit 1

let () =
  let rows = ref Bench_util.default_rows in
  let queries = ref 200 in
  let trials = ref 40 in
  let experiments = ref [] in
  let rec parse = function
    | [] -> ()
    | "--rows" :: v :: rest ->
        rows := int_of_string v;
        parse rest
    | "--queries" :: v :: rest ->
        queries := int_of_string v;
        parse rest
    | "--trials" :: v :: rest ->
        trials := int_of_string v;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | exp :: rest ->
        experiments := exp :: !experiments;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let experiments = if !experiments = [] then [ "all" ] else List.rev !experiments in
  let attack_rows = min !rows 40_000 in
  let run_one = function
    | "table1" | "creation" -> Exp_table1.run ~rows:!rows ()
    | "fig2" -> Exp_fig2.run ()
    | "figs" | "fig4" | "fig5" | "fig6" | "fig7" ->
        Exp_latency.run ~rows:!rows ~n_queries:!queries ()
    | "fp" | "fig8" | "fig9" -> Exp_fp.run ~rows:!rows ~n_queries:!queries ()
    | "aliasing" -> Exp_aliasing.run ~rows:attack_rows ()
    | "attacks" -> Exp_attacks.run ~rows:attack_rows ()
    | "indcuda" -> Exp_indcuda.run ~trials:!trials ()
    | "lambda_sweep" -> Exp_lambda.run ~rows:attack_rows ()
    | "updates" -> Exp_updates.run ~rows:attack_rows ()
    | "index_ablation" -> Exp_index_ablation.run ~rows:!rows ~n_queries:!queries ()
    | "correlation" -> Exp_correlation.run ~rows:attack_rows ()
    | "micro" -> Exp_micro.run ()
    | "ingest" -> Exp_ingest.run ~rows:!rows ()
    | "recovery" -> Exp_recovery.run ~rows:!rows ()
    | "concurrency" -> Exp_concurrency.run ~rows:!rows ~n_queries:!queries ()
    | "server" -> Exp_server.run ~rows:!rows ~n_queries:!queries ()
    | "join" -> Exp_join.run ~rows:!rows ()
    | "range" -> Exp_range.run ~rows:!rows ~n_queries:!queries ()
    | "freeze" -> Exp_freeze.run ~rows:!rows ()
    | "all" ->
        Exp_table1.run ~rows:!rows ();
        Exp_fig2.run ();
        Exp_latency.run ~rows:!rows ~n_queries:!queries ();
        Exp_fp.run ~rows:!rows ~n_queries:!queries ();
        Exp_aliasing.run ~rows:attack_rows ();
        Exp_attacks.run ~rows:attack_rows ();
        Exp_indcuda.run ~trials:!trials ();
        Exp_lambda.run ~rows:attack_rows ();
        Exp_updates.run ~rows:attack_rows ();
        Exp_index_ablation.run ~rows:!rows ~n_queries:!queries ();
        Exp_correlation.run ~rows:attack_rows ();
        Exp_micro.run ();
        Exp_ingest.run ~rows:!rows ();
        Exp_recovery.run ~rows:!rows ();
        Exp_concurrency.run ~rows:!rows ~n_queries:!queries ();
        Exp_server.run ~rows:!rows ~n_queries:!queries ();
        Exp_join.run ~rows:!rows ();
        Exp_range.run ~rows:!rows ~n_queries:!queries ();
        Exp_freeze.run ~rows:!rows ()
    | other ->
        Printf.eprintf "unknown experiment %S\n" other;
        usage ()
  in
  Printf.printf "WRE reproduction bench harness (rows=%d, queries=%d, trials=%d)\n" !rows !queries
    !trials;
  List.iter run_one experiments
