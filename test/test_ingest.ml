(* The batched ingestion pipeline: equivalence of Encrypted_db.
   insert_batch with sequential insert (byte-identical at 1 domain,
   same decrypted contents and search results at N domains), and the
   determinism contract of the chunked multi-domain path. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let n_rows = 1500
let enc_columns = Sparta.Generator.encrypted_columns

let rows =
  lazy
    (let gen = Sparta.Generator.create ~seed:404L in
     Array.of_seq (Sparta.Generator.rows gen ~n:n_rows))

let dist_of_lazy =
  lazy
    (Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns:enc_columns
       (Array.to_seq (Lazy.force rows)))

let build_edb ?(kind = Wre.Scheme.Poisson 200.0) () =
  let db = Sqldb.Database.create () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 123L) in
  Wre.Encrypted_db.create ~db ~name:"main" ~plain_schema:Sparta.Generator.schema
    ~key_column:"id" ~encrypted_columns:enc_columns ~kind ~master
    ~dist_of:(Lazy.force dist_of_lazy) ~seed:55L ()

(* Byte-level table equality: every cell of every row (tags and
   ciphertext blobs compare as strings inside Value.equal), page
   assignment, liveness, and storage accounting. *)
let assert_tables_identical label ta tb =
  let open Sqldb in
  check_int (label ^ ": row_count") (Table.row_count ta) (Table.row_count tb);
  for id = 0 to Table.row_count ta - 1 do
    let ra = Table.peek_row ta id and rb = Table.peek_row tb id in
    check_int (Printf.sprintf "%s: row %d arity" label id) (Array.length ra) (Array.length rb);
    Array.iteri
      (fun i va ->
        check_bool
          (Printf.sprintf "%s: row %d col %d" label id i)
          true
          (Value.equal va rb.(i)))
      ra;
    check_int (Printf.sprintf "%s: row %d page" label id) (Table.row_page ta id)
      (Table.row_page tb id)
  done;
  check_int (label ^ ": heap_bytes") (Table.heap_bytes ta) (Table.heap_bytes tb);
  check_int (label ^ ": index_bytes") (Table.index_bytes ta) (Table.index_bytes tb)

let load_sequential () =
  let edb = build_edb () in
  Array.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) (Lazy.force rows);
  edb

let test_batch_1domain_byte_identical () =
  let seq = load_sequential () in
  let batch = build_edb () in
  let first = Wre.Encrypted_db.insert_batch batch (Lazy.force rows) in
  check_int "first id" 0 first;
  assert_tables_identical "no pool"
    (Wre.Encrypted_db.table seq)
    (Wre.Encrypted_db.table batch);
  (* A 1-domain pool must take the same path. *)
  let pooled = build_edb () in
  Stdx.Task_pool.with_pool ~domains:1 (fun pool ->
      ignore (Wre.Encrypted_db.insert_batch ~pool pooled (Lazy.force rows) : int));
  assert_tables_identical "1-domain pool"
    (Wre.Encrypted_db.table seq)
    (Wre.Encrypted_db.table pooled)

let load_parallel ~domains ~chunk_size () =
  let edb = build_edb () in
  Stdx.Task_pool.with_pool ~domains (fun pool ->
      ignore (Wre.Encrypted_db.insert_batch ~pool ~chunk_size edb (Lazy.force rows) : int));
  edb

let test_batch_multidomain_reproducible () =
  let a = load_parallel ~domains:4 ~chunk_size:256 () in
  let b = load_parallel ~domains:4 ~chunk_size:256 () in
  assert_tables_identical "same (seed, domains, chunk)" (Wre.Encrypted_db.table a)
    (Wre.Encrypted_db.table b);
  (* The chunked derivation depends on (PRNG state, chunk size) only,
     not on how many domains executed the chunks. *)
  let c = load_parallel ~domains:2 ~chunk_size:256 () in
  assert_tables_identical "domain-count independent" (Wre.Encrypted_db.table a)
    (Wre.Encrypted_db.table c)

let test_batch_multidomain_matches_sequential_contents () =
  let seq = load_sequential () in
  let par = load_parallel ~domains:4 ~chunk_size:128 () in
  let plain = Lazy.force rows in
  (* Decrypted contents: every row decrypts back to its plaintext. *)
  let tab = Wre.Encrypted_db.table par in
  check_int "row_count" (Array.length plain) (Sqldb.Table.row_count tab);
  Array.iteri
    (fun id expected ->
      let got = Wre.Encrypted_db.decrypt_row par (Sqldb.Table.peek_row tab id) in
      Array.iteri
        (fun i v ->
          check_bool
            (Printf.sprintf "row %d col %d decrypts" id i)
            true
            (Sqldb.Value.equal v got.(i)))
        expected)
    plain;
  (* Search results: same ids for the same queries as the sequential
     load (tags differ per row, but the search expands all salts). *)
  let queries =
    Sparta.Query_gen.generate ~seed:9L ~columns:enc_columns
      ~counts:(fun col ->
        let d = Lazy.force dist_of_lazy col in
        Array.to_list
          (Array.map (fun v -> (v, Dist.Empirical.count d v)) (Dist.Empirical.support d)))
      ~n:40 ()
  in
  List.iter
    (fun (q : Sparta.Query_gen.query) ->
      let ids edb =
        let r =
          Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Sqldb.Executor.Row_ids
            (Wre.Encrypted_db.search_predicate edb ~column:q.column q.value)
        in
        List.sort compare (Array.to_list r.row_ids)
      in
      check_bool (Printf.sprintf "%s=%s" q.column q.value) true (ids seq = ids par))
    queries

let test_batch_rejects_unknown_plaintext () =
  let edb = build_edb () in
  let bad =
    [|
      (Lazy.force rows).(0);
      (let r = Array.copy (Lazy.force rows).(1) in
       let pos = Sqldb.Schema.column_index Sparta.Generator.schema (List.hd enc_columns) in
       r.(pos) <- Sqldb.Value.Text "zzz-never-profiled-zzz";
       r);
    |]
  in
  check_bool "raises Unknown_plaintext" true
    (match Wre.Encrypted_db.insert_batch edb bad with
    | (_ : int) -> false
    | exception Wre.Column_enc.Unknown_plaintext _ -> true);
  (* All-or-nothing: nothing was applied to the table. *)
  check_int "no partial batch" 0 (Sqldb.Table.row_count (Wre.Encrypted_db.table edb))

let test_batch_validation_all_or_nothing () =
  let edb = build_edb () in
  let bad = [| (Lazy.force rows).(0); [| Sqldb.Value.Null |] |] in
  check_bool "raises Invalid_argument" true
    (match Wre.Encrypted_db.insert_batch edb bad with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true);
  check_int "no partial batch" 0 (Sqldb.Table.row_count (Wre.Encrypted_db.table edb))

let () =
  Alcotest.run "ingest"
    [
      ( "insert_batch",
        [
          Alcotest.test_case "1 domain byte-identical" `Quick test_batch_1domain_byte_identical;
          Alcotest.test_case "multi-domain reproducible" `Quick
            test_batch_multidomain_reproducible;
          Alcotest.test_case "multi-domain contents + search" `Quick
            test_batch_multidomain_matches_sequential_contents;
          Alcotest.test_case "unknown plaintext rejected" `Quick
            test_batch_rejects_unknown_plaintext;
          Alcotest.test_case "validation all-or-nothing" `Quick
            test_batch_validation_all_or_nothing;
        ] );
    ]
