(* Census-scale scenario: the paper's evaluation pipeline at example
   size. Generates a SPARTA-style person table, loads a plaintext and a
   WRE-encrypted copy, and compares storage plus cold/warm query
   latency.

     dune exec examples/census_database.exe -- [n_rows]           *)

open Sqldb

let n_rows = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20_000

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let () =
  Printf.printf "generating %d census-like records...\n%!" n_rows;
  let gen = Sparta.Generator.create ~seed:2024L in
  let rows = Array.of_seq (Sparta.Generator.rows gen ~n:n_rows) in
  let enc_columns = Sparta.Generator.encrypted_columns in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns:enc_columns
      (Array.to_seq rows)
  in

  (* Plaintext reference database with the same indexes. *)
  let plain_db = Database.create () in
  let plain = Database.create_table plain_db ~name:"main" ~schema:Sparta.Generator.schema in
  ignore (Table.create_index plain ~column:"id");
  List.iter (fun c -> ignore (Table.create_index plain ~column:c)) enc_columns;
  let (), plain_load_ns =
    Stdx.Clock.time_it (fun () -> Array.iter (fun r -> ignore (Table.insert plain r)) rows)
  in

  (* Encrypted database, Poisson λ=1000 (the paper's sweet spot). *)
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let enc_db = Database.create () in
  let edb =
    Wre.Encrypted_db.create ~db:enc_db ~name:"main" ~plain_schema:Sparta.Generator.schema
      ~key_column:"id" ~encrypted_columns:enc_columns ~kind:(Wre.Scheme.Poisson 1000.0) ~master
      ~dist_of ~seed:7L ()
  in
  let (), enc_load_ns =
    Stdx.Clock.time_it (fun () ->
        Array.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows)
  in
  let enc_table = Wre.Encrypted_db.table edb in

  Printf.printf "\nstorage (cf. paper Table I):\n";
  Printf.printf "  plaintext  DB %.1f MB, DB+indexes %.1f MB\n" (mb (Table.heap_bytes plain))
    (mb (Table.total_bytes plain));
  Printf.printf "  encrypted  DB %.1f MB, DB+indexes %.1f MB  (expansion %.2fx / %.2fx)\n"
    (mb (Table.heap_bytes enc_table))
    (mb (Table.total_bytes enc_table))
    (float_of_int (Table.heap_bytes enc_table) /. float_of_int (Table.heap_bytes plain))
    (float_of_int (Table.total_bytes enc_table) /. float_of_int (Table.total_bytes plain));
  Printf.printf "\nbulk load: plaintext %.2fs, encrypted %.2fs (%.1fx slower)\n"
    (plain_load_ns /. 1e9) (enc_load_ns /. 1e9) (enc_load_ns /. plain_load_ns);

  (* Queries: same plaintext equality query against both databases,
     cold cache (paper Figs. 4/5 protocol). *)
  let queries =
    Sparta.Query_gen.generate ~seed:99L ~columns:enc_columns
      ~counts:(fun col ->
        let d = dist_of col in
        Array.to_list
          (Array.map (fun v -> (v, Dist.Empirical.count d v)) (Dist.Empirical.support d)))
      ~n:30 ()
  in
  (* The encrypted server's answer to [SELECT * WHERE col = value]:
     the rewritten tag IN-list over a frozen view. *)
  let enc_select_star (q : Sparta.Query_gen.query) =
    Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Executor.All_columns
      (Wre.Encrypted_db.search_predicate edb ~column:q.column q.value)
  in
  (* One buffer pool per database, installed around that database's
     queries only. *)
  let plain_cache = Pager.cache () and enc_cache = Pager.cache () in
  Printf.printf "\ncold-cache SELECT * latency (modeled I/O):\n";
  Printf.printf "  %-8s %-22s %7s %12s %12s\n" "column" "value" "rows" "plain(ms)" "wre(ms)";
  List.iter
    (fun (q : Sparta.Query_gen.query) ->
      Pager.clear plain_cache;
      let plain_res =
        Pager.with_cache plain_cache (fun () ->
            Executor.run_view (Table.freeze plain) ~projection:Executor.All_columns
              (Predicate.Eq (q.column, Value.Text q.value)))
      in
      Pager.clear enc_cache;
      let enc_res = Pager.with_cache enc_cache (fun () -> enc_select_star q) in
      Printf.printf "  %-8s %-22s %7d %12.2f %12.2f\n" q.column q.value
        (Array.length plain_res.row_ids)
        (Pager.sim_ms plain_res.stats) (Pager.sim_ms enc_res.stats))
    (List.filteri (fun i _ -> i < 10) queries);

  Printf.printf "\nwarm-cache pass over the same queries:\n";
  let warm_total db_kind run =
    List.fold_left
      (fun acc (q : Sparta.Query_gen.query) -> acc +. run q)
      0.0 queries
    |> fun total -> Printf.printf "  %-10s total %.2f ms over %d queries\n" db_kind total (List.length queries)
  in
  warm_total "plaintext" (fun q ->
      let r =
        Pager.with_cache plain_cache (fun () ->
            Executor.run_view (Table.freeze plain) ~projection:Executor.All_columns
              (Predicate.Eq (q.column, Value.Text q.value)))
      in
      Pager.sim_ms r.stats);
  warm_total "encrypted" (fun q ->
      let r = Pager.with_cache enc_cache (fun () -> enc_select_star q) in
      Pager.sim_ms r.stats)
