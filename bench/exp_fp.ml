(* Figures 8-9 — bucketized Poisson false positives. X axis: records a
   query truly matches (what non-bucketized Poisson returns); Y axis:
   records the bucketized query returns from the server. Fig 8 uses
   lambda = 1000 (weak correlation — result sizes are masked), Fig 9
   lambda = 10,000 (correlation visible). *)

let run_one ~rows ~dist_of ~queries lambda =
  Bench_util.heading
    (Printf.sprintf "Figure %s: Bucketized Poisson false positives (lambda = %g)"
       (if lambda < 5000.0 then "8" else "9")
       lambda);
  let edb, _ = Bench_util.build_encrypted ~kind:(Wre.Scheme.Bucketized lambda) ~dist_of rows in
  let view = Wre.Encrypted_db.freeze edb in
  let pairs =
    List.map
      (fun (q : Sparta.Query_gen.query) ->
        let raw =
          Sqldb.Executor.run_view view ~projection:Sqldb.Executor.Row_ids
            (Wre.Encrypted_db.search_predicate edb ~column:q.column q.value)
        in
        (q, Array.length raw.row_ids))
      queries
  in
  let t =
    Stdx.Table_fmt.create
      [ "column"; "value"; "true matches (X)"; "returned (Y)"; "false positives" ]
  in
  let shown = ref 0 in
  List.iter
    (fun ((q : Sparta.Query_gen.query), returned) ->
      if !shown < 18 then begin
        incr shown;
        Stdx.Table_fmt.add_row t
          [
            q.column;
            q.value;
            string_of_int q.expected;
            string_of_int returned;
            string_of_int (returned - q.expected);
          ]
      end)
    (List.sort
       (fun ((a : Sparta.Query_gen.query), _) (b, _) -> compare a.expected b.expected)
       pairs);
  Stdx.Table_fmt.print t;
  let correlation pairs =
    let xs =
      Array.of_list (List.map (fun ((q : Sparta.Query_gen.query), _) -> float_of_int q.expected) pairs)
    in
    let ys = Array.of_list (List.map (fun (_, r) -> float_of_int r) pairs) in
    Stdx.Stats.spearman xs ys
  in
  let small = List.filter (fun ((q : Sparta.Query_gen.query), _) -> q.expected <= 100) pairs in
  let fp_total =
    List.fold_left
      (fun acc ((q : Sparta.Query_gen.query), r) -> acc + r - q.expected)
      0 pairs
  in
  Printf.printf
    "%d queries: Spearman X~Y = %.3f overall, %.3f on queries with <= 100 true matches\n\
     (the range the masking matters for); mean false positives per query = %.1f\n"
    (List.length pairs) (correlation pairs)
    (if small = [] then nan else correlation small)
    (float_of_int fp_total /. float_of_int (List.length pairs))

let run ~rows:n_rows ~n_queries () =
  let rows = Bench_util.generate_rows n_rows in
  let dist_of = Bench_util.dist_of_rows rows in
  let queries = Bench_util.make_queries ~dist_of ~n:n_queries in
  run_one ~rows ~dist_of ~queries 1000.0;
  run_one ~rows ~dist_of ~queries 10_000.0;
  Printf.printf
    "\nreading: higher lambda -> narrower buckets -> returned size tracks true size\n\
     (Fig 9); lower lambda masks result sizes (Fig 8), which the paper suggests\n\
     as a defence against reconstruction-from-volume attacks.\n"
