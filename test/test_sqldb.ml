(* Storage-engine tests: schema enforcement, index correctness versus a
   naive scan, the buffer-pool cold/warm behaviour the latency
   experiments depend on, and the size accounting behind Table I. *)

open Sqldb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "score"; ty = TReal; nullable = true };
    ]

let mk_row id name score =
  [| Value.Int (Int64.of_int id); Value.Text name; (match score with Some s -> Value.Real s | None -> Value.Null) |]

(* ---------------- Value ---------------- *)

let test_value_compare_order () =
  check_bool "null smallest" true (Value.compare Value.Null (Value.Int 0L) < 0);
  check_bool "int order" true (Value.compare (Value.Int 1L) (Value.Int 2L) < 0);
  check_bool "int64 negatives" true (Value.compare (Value.Int (-1L)) (Value.Int 1L) < 0);
  check_bool "text order" true (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  check_bool "equal" true (Value.equal (Value.Blob "x") (Value.Blob "x"))

let test_value_heap_bytes () =
  check_int "int" 8 (Value.heap_bytes (Value.Int 5L));
  check_int "real" 8 (Value.heap_bytes (Value.Real 1.5));
  check_int "null" 0 (Value.heap_bytes Value.Null);
  check_int "short text varlena" 6 (Value.heap_bytes (Value.Text "hello"));
  check_int "long text varlena" 204 (Value.heap_bytes (Value.Text (String.make 200 'x')))

let test_value_hash_consistent () =
  check_int "hash equal values" (Value.hash (Value.Text "abc")) (Value.hash (Value.Text "abc"));
  check_bool "pp output" true (String.length (Value.to_string (Value.Blob "\x01")) > 0)

(* ---------------- Schema ---------------- *)

let test_schema_validation () =
  check_int "arity" 3 (Schema.arity small_schema);
  check_int "index" 1 (Schema.column_index small_schema "name");
  Alcotest.(check (option int)) "missing" None (Schema.column_index_opt small_schema "nope");
  check_bool "valid row" true (Schema.validate_row small_schema (mk_row 1 "a" None) = Ok ());
  check_bool "arity mismatch" true
    (Result.is_error (Schema.validate_row small_schema [| Value.Int 1L |]));
  check_bool "type mismatch" true
    (Result.is_error
       (Schema.validate_row small_schema [| Value.Text "x"; Value.Text "a"; Value.Null |]));
  check_bool "not-null violated" true
    (Result.is_error (Schema.validate_row small_schema [| Value.Null; Value.Text "a"; Value.Null |]))

let test_schema_rejects_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.create: duplicate column \"a\"") (fun () ->
      ignore
        (Schema.create
           [ { name = "a"; ty = TInt; nullable = false }; { name = "a"; ty = TInt; nullable = false } ]))

(* ---------------- Table ---------------- *)

let test_table_insert_read () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let id0 = Table.insert t (mk_row 0 "alice" (Some 1.0)) in
  let id1 = Table.insert t (mk_row 1 "bob" None) in
  check_int "row ids sequential" 0 id0;
  check_int "row ids sequential 2" 1 id1;
  check_int "count" 2 (Table.row_count t);
  Alcotest.(check string) "read back" "bob" (match (Read_view.read_row (Table.freeze t) 1).(1) with Value.Text s -> s | _ -> "?");
  Alcotest.check_raises "schema enforced"
    (Invalid_argument "Table.apply(t): row 0: column \"name\" expects TEXT, got INT") (fun () ->
      ignore (Table.insert t [| Value.Int 2L; Value.Int 3L; Value.Null |]))

let test_table_pages_grow () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  (* Distinct ~104-byte names: nothing deduplicates, so the dictionary
     holds 1000 large entries and the heap must still span many pages. *)
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "%04d%s" i (String.make 100 'x')) (Some 0.0)))
  done;
  check_bool "multiple pages" true (Table.heap_pages t > 5);
  check_bool "pages monotone with rows" true (Table.row_page t 999 >= Table.row_page t 0);
  check_bool "heap bytes = pages * size" true
    (Table.heap_bytes t = Table.heap_pages t * Pager.cost_model.page_size);
  check_bool "avg row bytes sane" true (Table.avg_row_bytes t > 0.0);
  (* Row-format shadow accounting sees the values inline: > 100 B/row. *)
  check_bool "row-model bytes sane" true
    (Table.row_model_bytes t > 100 * Table.live_count t);
  (* Same string every row: the dictionary stores it once and pages
     collapse — the columnar win the shadow accounting quantifies. *)
  let t2 = Table.create ~name:"t2" ~schema:small_schema in
  for i = 0 to 999 do
    ignore (Table.insert t2 (mk_row i (String.make 100 'x') (Some 0.0)))
  done;
  check_bool "repeated values compress" true (Table.heap_bytes t2 < Table.row_model_bytes t2)

(* [Table.row_model_bytes] after each step of a fixed script (rows of
   1–120-byte names, every third score NULL). The figures were recorded
   from the engine that maintained the row-format baseline as counters
   on every insert and vacuum; computing it on demand must reproduce
   them exactly — dead-but-unvacuumed rows included, reclaimed slots
   excluded, and through a snapshot restore. *)
let test_row_model_bytes_fixed () =
  let t = Table.create ~name:"rm" ~schema:small_schema in
  let g = Stdx.Prng.create 11L in
  let row i =
    mk_row i
      (String.make (1 + Stdx.Prng.int g 120) (Char.chr (97 + (i mod 26))))
      (if i mod 3 = 0 then None else Some (float_of_int i))
  in
  let steps = ref [] in
  let note label = steps := (label, Table.row_model_bytes t) :: !steps in
  for i = 0 to 599 do
    ignore (Table.insert t (row i))
  done;
  note "insert";
  for id = 0 to 599 do
    if id mod 4 = 1 then ignore (Table.delete t id)
  done;
  note "delete";
  for id = 0 to 599 do
    if id mod 5 = 2 && Table.is_live t id then
      ignore (Table.apply t ~delete:[| id |] ~insert:[| row (1000 + id) |] : int * int)
  done;
  note "update";
  Table.vacuum t;
  note "vacuum";
  ignore (Table.insert_batch t (Array.init 150 (fun i -> row (2000 + i))));
  note "insert";
  for id = 0 to Table.row_count t - 1 do
    if id mod 5 = 3 && Table.is_live t id then ignore (Table.delete t id)
  done;
  note "delete";
  let restored = Table.of_snapshot (Table.snapshot t) in
  steps := ("restore", Table.row_model_bytes restored) :: !steps;
  Alcotest.(check (list (pair string int)))
    "row-model bytes per step"
    [
      ("insert", 65536);
      ("delete", 65536);
      ("update", 81920);
      ("vacuum", 49152);
      ("insert", 65536);
      ("delete", 65536);
      ("restore", 65536);
    ]
    (List.rev !steps)

let test_table_scan () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i "n" None))
  done;
  let seen = ref 0 in
  let before = Pager.local_stats () in
  Read_view.scan (Table.freeze t) (fun _id _row -> incr seen);
  let stats = Pager.diff_stats before (Pager.local_stats ()) in
  check_int "visits all" 100 !seen;
  check_int "charged rows" 100 stats.rows_examined;
  check_int "one touch per heap page" (Table.row_page t 99 + 1) stats.hits;
  check_int "no cache, no misses" 0 stats.misses

(* ---------------- Btree index ---------------- *)

let naive_lookup t col v =
  let acc = ref [] in
  for id = Table.row_count t - 1 downto 0 do
    if Value.equal (Table.peek_row t id).(col) v then acc := id :: !acc
  done;
  Array.of_list !acc

let test_index_matches_naive () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let g = Stdx.Prng.create 8L in
  for i = 0 to 499 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "name%d" (Stdx.Prng.int g 20)) None))
  done;
  let idx = Table.create_index t ~column:"name" in
  for k = 0 to 19 do
    let v = Value.Text (Printf.sprintf "name%d" k) in
    let from_index = Table_index.lookup idx v in
    Array.sort compare from_index;
    Alcotest.(check (array int)) (Printf.sprintf "key %d" k) (naive_lookup t 1 v) from_index
  done;
  Alcotest.(check (array int)) "missing key" [||] (Table_index.lookup idx (Value.Text "absent"))

let test_index_lookup_many_dedups () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 49 do
    ignore (Table.insert t (mk_row i (if i mod 2 = 0 then "even" else "odd") None))
  done;
  let idx = Table.create_index t ~column:"name" in
  let ids = Table_index.lookup_many idx [ Value.Text "even"; Value.Text "odd"; Value.Text "even" ] in
  check_int "all rows exactly once" 50 (Array.length ids)

let test_index_range () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i "x" None))
  done;
  let idx = Table.create_index t ~column:"id" in
  let ids = Table_index.range idx ~lo:(Value.Int 10L) ~hi:(Value.Int 19L) () in
  check_int "inclusive range" 10 (Array.length ids);
  let all = Table_index.range idx () in
  check_int "unbounded" 100 (Array.length all);
  let empty = Table_index.range idx ~lo:(Value.Int 200L) () in
  check_int "empty range" 0 (Array.length empty)

let test_index_incremental_after_create () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  ignore (Table.insert t (mk_row 0 "late" None));
  check_int "sees post-create insert" 1 (Array.length (Table_index.lookup idx (Value.Text "late")))

let test_index_sizes () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 9999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "u%d" i) None))
  done;
  let idx = Table.create_index t ~column:"name" in
  check_int "entries" 10000 (Table_index.entry_count idx);
  check_int "distinct" 10000 (Table_index.distinct_keys idx);
  check_bool "has pages" true (Table_index.leaf_pages idx > 10);
  check_bool "height >= 1" true (Table_index.height idx >= 1);
  check_bool "size covers entries" true
    (Table_index.size_bytes idx > 10000 * 16);
  (* Duplicate-heavy index should pack denser than a unique one. *)
  let t2 = Table.create ~name:"t2" ~schema:small_schema in
  for i = 0 to 9999 do
    ignore (Table.insert t2 (mk_row i "same" None))
  done;
  let idx2 = Table.create_index t2 ~column:"name" in
  check_bool "duplicates pack denser" true
    (Table_index.leaf_pages idx2 < Table_index.leaf_pages idx)

(* ---------------- Pager cold/warm ---------------- *)

let test_pager_cold_warm () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 4999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 50)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let query () =
    Executor.run_view (Table.freeze t) ~projection:Executor.All_columns (Predicate.Eq ("name", Value.Text "n7"))
  in
  let cache = Pager.cache () in
  let run () =
    let r = Pager.with_cache cache query in
    (r, r.stats)
  in
  let r_cold, s_cold = run () in
  let r_warm, s_warm = run () in
  check_int "same results" (Array.length r_cold.row_ids) (Array.length r_warm.row_ids);
  check_bool "cold has misses" true (s_cold.misses > 0);
  check_int "warm has no misses" 0 s_warm.misses;
  check_bool "warm cheaper" true (s_warm.sim_ns < s_cold.sim_ns);
  Pager.clear cache;
  let _, s_cold2 = run () in
  check_bool "clear restores cold cost" true (s_cold2.misses = s_cold.misses);
  (* Outside a cache the same query touches the same pages, all hits. *)
  let s_none = (query ()).stats in
  check_int "no cache, no misses" 0 s_none.misses;
  check_int "no cache, same touches" (s_cold.hits + s_cold.misses) s_none.hits

let test_pager_stats_accumulate () =
  let rel = Pager.make_rel () in
  let before = Pager.local_stats () in
  let since () = Pager.diff_stats before (Pager.local_stats ()) in
  Pager.with_cache (Pager.cache ()) (fun () ->
      Pager.touch rel 0;
      Pager.touch rel 0;
      Pager.touch rel 1);
  let s = since () in
  check_int "misses" 2 s.misses;
  check_int "hits" 1 s.hits;
  check_bool "sim time from misses" true (s.sim_ns >= 2.0 *. Pager.cost_model.io_miss_ns);
  Pager.charge_rows 7;
  Pager.charge_probe ();
  Pager.charge_probe ();
  Pager.charge_transfer 1234;
  let s = since () in
  check_int "rows" 7 s.rows_examined;
  check_int "probes" 2 s.probes;
  check_int "bytes" 1234 s.bytes;
  (* The modeled clock is derived from the counts, linearly. *)
  let c = Pager.cost_model in
  Alcotest.(check (float 0.0))
    "sim_ns = linear cost model over the counts"
    ((2.0 *. c.io_miss_ns) +. (7.0 *. c.cpu_row_ns) +. (2.0 *. c.cpu_probe_ns)
    +. (1234.0 *. c.cpu_transfer_ns_per_byte))
    s.sim_ns;
  (* Rels are distinct page spaces in a cache; outside one, every
     touch is a hit. *)
  let cache = Pager.cache () in
  Pager.with_cache cache (fun () -> Pager.touch rel 0);
  Pager.with_cache cache (fun () -> Pager.touch (Pager.make_rel ()) 0);
  Pager.touch rel 5;
  let s = since () in
  check_int "a fresh rel misses" 4 s.misses;
  check_int "uncached touch hits" 2 s.hits

(* A cache lives on the domain that installed it: another domain
   querying the same view at the same time, uncached, neither sees it
   nor disturbs it. *)
let test_pager_cache_per_domain () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 4999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 50)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let view = Table.freeze t in
  let query k =
    Executor.run_view view ~projection:Executor.All_columns
      (Predicate.Eq ("name", Value.Text (Printf.sprintf "n%d" k)))
  in
  let cold_then_warm () =
    let cache = Pager.cache () in
    Pager.with_cache cache @@ fun () ->
    let run k =
      let s = (query k).stats in
      (s.hits, s.misses, s.rows_examined)
    in
    let cold =
      List.init 50 (fun k ->
          Pager.clear cache;
          run k)
    in
    cold @ List.init 50 run
  in
  let solo = cold_then_warm () in
  let started = Atomic.make false and finished = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Atomic.set started true;
        let rec loop k misses =
          let misses = misses + (query (k mod 50)).stats.misses in
          if Atomic.get finished then (k + 1, misses) else loop (k + 1) misses
        in
        loop 0 0)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let concurrent = cold_then_warm () in
  Atomic.set finished true;
  let other_queries, other_misses = Domain.join other in
  Alcotest.(check (list (triple int int int))) "cached domain matches a solo run" solo concurrent;
  check_bool "the other domain ran" true (other_queries > 0);
  check_int "the uncached domain never misses" 0 other_misses

let test_pager_with_cache_restores () =
  let rel = Pager.make_rel () in
  let outer = Pager.cache () and inner = Pager.cache () in
  let misses f =
    let before = Pager.local_stats () in
    f ();
    (Pager.diff_stats before (Pager.local_stats ())).misses
  in
  Alcotest.check_raises "the exception propagates" (Failure "boom") (fun () ->
      Pager.with_cache inner (fun () ->
          Pager.touch rel 0;
          failwith "boom"));
  check_int "no cache after the raise" 0 (misses (fun () -> Pager.touch rel 1));
  Pager.with_cache outer (fun () ->
      (try Pager.with_cache inner (fun () -> failwith "boom") with Failure _ -> ());
      check_int "the outer cache is back" 1 (misses (fun () -> Pager.touch rel 0)));
  check_int "the inner cache kept its page" 0
    (misses (fun () -> Pager.with_cache inner (fun () -> Pager.touch rel 0)))

(* ---------------- Snapshot views & parallel pager accounting ---------------- *)

let pager_counters () =
  List.map
    (fun n -> Obs.Metrics.counter_value (Obs.Metrics.counter ("pager." ^ n ^ "_total")))
    [ "page_hits"; "page_misses"; "rows_examined"; "index_probes"; "bytes_transferred" ]

let test_pager_counters_exact_multi_domain () =
  (* Four domains query disjoint slices of a frozen view concurrently,
     each under its own cache. Each query's [stats] is a domain-local
     delta; the process-wide [pager.*_total] counters must move by the
     sum of those deltas exactly — a lost-update race in the counters
     would break the equality. *)
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 4999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 64)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let view = Table.freeze t in
  let pred k = Predicate.Eq ("name", Value.Text (Printf.sprintf "n%d" k)) in
  let seq = Array.init 64 (fun k -> Executor.run_view (Table.freeze t) ~projection:Executor.All_columns (pred k)) in
  let counters_before = pager_counters () in
  let n_dom = 4 in
  let worker d () =
    Pager.with_cache (Pager.cache ()) @@ fun () ->
    let acc = ref [] in
    let k = ref d in
    while !k < 64 do
      acc := (!k, Executor.run_view view ~projection:Executor.All_columns (pred !k)) :: !acc;
      k := !k + n_dom
    done;
    !acc
  in
  let doms = Array.init (n_dom - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let own = worker 0 () in
  let all = own @ List.concat_map Domain.join (Array.to_list doms) in
  let results = Array.make 64 None in
  List.iter (fun (k, r) -> results.(k) <- Some r) all;
  let per_query = Array.map Option.get results in
  let total =
    Array.fold_left
      (fun acc (r : Executor.result) -> Pager.sum_stats acc r.stats)
      Pager.zero_stats per_query
  in
  Alcotest.(check (list int))
    "pager.*_total moved by the per-query sums"
    [ total.hits; total.misses; total.rows_examined; total.probes; total.bytes ]
    (List.map2 ( - ) (pager_counters ()) counters_before);
  check_bool "work actually happened" true
    (total.misses > 0 && total.rows_examined > 0 && total.probes > 0 && total.bytes > 0);
  Array.iteri
    (fun k (r : Executor.result) ->
      Alcotest.(check (array int)) (Printf.sprintf "ids %d" k) seq.(k).row_ids r.row_ids;
      check_bool (Printf.sprintf "rows %d" k) true (r.rows = seq.(k).rows))
    per_query

let test_view_isolated_from_mutations () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 10)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let view = Table.freeze t in
  let pred = Predicate.Eq ("name", Value.Text "n4") in
  let before = (Executor.run_view view ~projection:Executor.All_columns pred).rows in
  for i = 0 to 99 do
    check_bool "deleted" true (Table.delete t i)
  done;
  Table.vacuum t;
  ignore (Table.insert t (mk_row 1000 "n4" (Some 1.0)));
  let after = (Executor.run_view view ~projection:Executor.All_columns pred).rows in
  check_bool "view unchanged by delete/vacuum/insert" true (before = after);
  check_int "view still sees 10 rows" 10 (Array.length after);
  let fresh = Table.freeze t in
  check_bool "fresh view at later epoch" true (Read_view.epoch fresh > Read_view.epoch view);
  check_int "fresh view sees new state" 1
    (Array.length (Executor.run_view fresh ~projection:Executor.Row_ids pred).row_ids)

(* Pager charges of a fixed query list over a fixed table (indexes
   built, grown, tombstoned and vacuumed), each query cold and then
   all of them warm. The figures were recorded from the
   engine that re-sorted its key groups on every epoch; the postings
   tree must reproduce them exactly — they are the modeled page counts
   behind the cold and warm shapes of Figs. 4–7. *)
let test_modeled_page_counts_fixed () =
  let page_counts () =
    let t = Table.create ~name:"pc" ~schema:small_schema in
    let g = Stdx.Prng.create 5L in
    let row () = mk_row (Stdx.Prng.int g 1500) (Printf.sprintf "n%d" (Stdx.Prng.int g 60)) None in
    for _ = 1 to 2000 do
      ignore (Table.insert t (row ()))
    done;
    ignore (Table.create_index t ~column:"id");
    ignore (Table.create_index t ~column:"name");
    for _ = 1 to 1000 do
      ignore (Table.insert t (row ()))
    done;
    for i = 0 to 149 do
      ignore (Table.delete t (i * 13))
    done;
    Table.vacuum t;
    for i = 150 to 199 do
      ignore (Table.delete t (i * 13))
    done;
    let int v = Value.Int (Int64.of_int v) and text s = Value.Text s in
    let queries =
      [
        Predicate.Eq ("id", int 700);
        Predicate.Eq ("id", int 100_000);
        Predicate.Eq ("name", text "n7");
        Predicate.Eq ("name", text "zz");
        Predicate.In ("name", [ text "n3"; text "n41"; text "n3"; text "nope" ]);
        Predicate.In ("id", List.init 12 (fun k -> int (k * 97)));
        Predicate.Range ("id", Some (int 200), Some (int 260));
        Predicate.Range ("id", None, Some (int 40));
        Predicate.Range ("id", Some (int 1490), None);
        Predicate.Range ("id", Some (int 900), Some (int 800));
        Predicate.Range ("name", Some (text "n2"), Some (text "n25"));
        Predicate.Or [ Predicate.Eq ("name", text "n9"); Predicate.Range ("id", Some (int 10), Some (int 30)) ];
      ]
    in
    let view = Table.freeze t in
    let cache = Pager.cache () in
    let run p =
      let r = Pager.with_cache cache (fun () -> Executor.run_view view ~projection:Executor.All_columns p) in
      (r.stats.hits, r.stats.misses, r.stats.rows_examined)
    in
    let cold =
      List.map
        (fun p ->
          Pager.clear cache;
          run p)
        queries
    in
    cold @ List.map run queries
  in
  let triples = Alcotest.(list (triple int int int)) in
  Alcotest.check triples "btree"
    [ (0, 3, 2); (0, 1, 0); (34, 10, 82); (0, 1, 0); (98, 10, 245); (26, 12, 36); (122, 9, 263);
      (53, 9, 122); (9, 9, 32); (0, 1, 0); (298, 10, 615); (70, 11, 158); (2, 1, 2); (1, 0, 0);
      (43, 1, 82); (1, 0, 0); (106, 2, 245); (34, 4, 36); (131, 0, 263); (62, 0, 122); (17, 1, 32);
      (1, 0, 0); (306, 2, 615); (81, 0, 158) ]
    (page_counts ())

(* A view shares the columnar storage and every index's postings root,
   so taking one after a write costs the visibility bitmap (one word
   per row) plus a constant per index — never a copy of the index
   entries. Counted in words allocated anywhere (minor and major). *)
let test_freeze_cost_bounded () =
  let freeze_words n =
    let t = Table.create ~name:"f" ~schema:small_schema in
    ignore
      (Table.insert_batch t
         (Array.init n (fun i -> mk_row i (Printf.sprintf "n%d" (i mod 97)) (Some (float_of_int i)))));
    ignore (Table.create_index t ~column:"id");
    ignore (Table.create_index t ~column:"score");
    ignore (Table.create_index t ~column:"name");
    ignore (Table.freeze t);
    ignore (Table.insert t (mk_row n "late" (Some 0.5)));
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let before = allocated () in
    ignore (Sys.opaque_identity (Table.freeze t));
    allocated () -. before
  in
  List.iter
    (fun n ->
      let words = freeze_words n in
      check_bool
        (Printf.sprintf "freeze at %d rows: %.0f words <= 2/row + 200/index" n words)
        true
        (words <= (2.0 *. float_of_int n) +. (3.0 *. 200.0)))
    [ 2_000; 20_000 ]

(* ---------------- Executor ---------------- *)

let build_db () =
  let db = Database.create () in
  let t = Database.create_table db ~name:"people" ~schema:small_schema in
  ignore (Table.create_index t ~column:"name");
  ignore (Table.create_index t ~column:"id");
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (i mod 10)) (Some (float_of_int i))))
  done;
  (db, t)

let test_executor_plans () =
  let _db, t = build_db () in
  check_bool "eq on indexed -> index scan" true
    (Executor.explain (Table.freeze t) (Predicate.Eq ("name", Value.Text "p1")) = Executor.Index_scan "name");
  check_bool "in on indexed -> index scan" true
    (Executor.explain (Table.freeze t) (Predicate.In ("name", [ Value.Text "p1" ])) = Executor.Index_scan "name");
  check_bool "non-indexed -> seq scan" true
    (Executor.explain (Table.freeze t) (Predicate.Eq ("score", Value.Real 3.0)) = Executor.Seq_scan);
  check_bool "and picks indexable leg" true
    (Executor.explain (Table.freeze t)
       (Predicate.And [ Predicate.Eq ("score", Value.Real 3.0); Predicate.Eq ("name", Value.Text "p1") ])
    = Executor.Index_scan "name")

let test_executor_correctness () =
  let _db, t = build_db () in
  let r = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "p3")) in
  check_int "100 matches" 100 (Array.length r.row_ids);
  check_int "row_ids only" 0 (Array.length r.rows);
  let r2 = Executor.run_view (Table.freeze t) ~projection:Executor.All_columns (Predicate.Eq ("name", Value.Text "p3")) in
  check_int "rows fetched" 100 (Array.length r2.rows);
  Array.iter
    (fun row -> check_bool "right rows" true (row.(1) = Value.Text "p3"))
    r2.rows;
  (* Seq scan agrees with index scan. *)
  let seq =
    Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids
      (Predicate.And [ Predicate.Eq ("name", Value.Text "p3"); Predicate.True ])
  in
  check_int "seq/index agree" (Array.length r.row_ids) (Array.length seq.row_ids)

let test_executor_residual_filter () =
  let _db, t = build_db () in
  let r =
    Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids
      (Predicate.And
         [ Predicate.Eq ("name", Value.Text "p3"); Predicate.Range ("id", Some (Value.Int 0L), Some (Value.Int 99L)) ])
  in
  check_int "filtered to first hundred ids" 10 (Array.length r.row_ids)

let test_executor_select_star_touches_heap () =
  let _db, t = build_db () in
  let cold projection =
    Pager.with_cache (Pager.cache ()) (fun () ->
        (Executor.run_view (Table.freeze t) ~projection (Predicate.Eq ("name", Value.Text "p4"))).stats)
  in
  let ids_stats = cold Executor.Row_ids in
  let star_stats = cold Executor.All_columns in
  check_bool "SELECT * touches more pages than SELECT ID" true
    (star_stats.misses > ids_stats.misses)

let test_executor_or_union () =
  let _db, t = build_db () in
  (* All legs indexable -> a deduplicated union of index lookups. *)
  let p =
    Predicate.Or
      [
        Predicate.Eq ("name", Value.Text "p1");
        Predicate.Range ("id", Some (Value.Int 0L), Some (Value.Int 99L));
      ]
  in
  check_bool "all-indexable OR -> index union" true
    (Executor.explain (Table.freeze t) p = Executor.Or_index_scan [ "name"; "id" ]);
  let r = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids p in
  (* 100 p1-rows + 100 low ids, overlapping on the 10 low p1-rows. *)
  check_int "union deduplicated" 190 (Array.length r.row_ids);
  let sorted = Array.to_list r.row_ids in
  check_bool "ids sorted and unique" true
    (List.sort_uniq compare sorted = sorted);
  let seq =
    Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.And [ p; Predicate.True ])
  in
  check_bool "seq scan fell back" true (seq.plan = Executor.Seq_scan);
  check_bool "union agrees with seq scan" true (sorted = Array.to_list seq.row_ids);
  (* Nested ORs flatten into one union. *)
  let nested =
    Predicate.Or
      [
        Predicate.Eq ("name", Value.Text "p1");
        Predicate.Or
          [ Predicate.Eq ("name", Value.Text "p2"); Predicate.Eq ("name", Value.Text "p3") ];
      ]
  in
  check_bool "nested OR flattens" true
    (Executor.explain (Table.freeze t) nested = Executor.Or_index_scan [ "name"; "name"; "name" ]);
  check_int "nested union" 300
    (Array.length (Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids nested).row_ids);
  (* One unservable leg poisons the whole disjunction. *)
  check_bool "non-indexable leg -> seq scan" true
    (Executor.explain (Table.freeze t)
       (Predicate.Or [ Predicate.Eq ("name", Value.Text "p1"); Predicate.Eq ("score", Value.Real 3.0) ])
    = Executor.Seq_scan)

let test_executor_or_and_not () =
  let _db, t = build_db () in
  let r =
    Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids
      (Predicate.Or [ Predicate.Eq ("name", Value.Text "p1"); Predicate.Eq ("name", Value.Text "p2") ])
  in
  check_int "or" 200 (Array.length r.row_ids);
  let r2 = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Not (Predicate.Eq ("name", Value.Text "p1"))) in
  check_int "not" 900 (Array.length r2.row_ids)

(* ---------------- Database ---------------- *)

let test_database_catalog () =
  let db = Database.create () in
  let _t = Database.create_table db ~name:"a" ~schema:small_schema in
  check_bool "lookup" true (Database.table_opt db "a" <> None);
  check_bool "missing" true (Database.table_opt db "b" = None);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Database.create_table: table \"a\" already exists") (fun () ->
      ignore (Database.create_table db ~name:"a" ~schema:small_schema));
  ignore (Table.insert (Database.table db "a") (mk_row 0 "x" None));
  check_int "insert through catalog" 1 (Table.row_count (Database.table db "a"));
  check_bool "sizes positive" true (Database.total_bytes db >= Database.heap_bytes db)

(* ---------------- Predicate ---------------- *)

let test_predicate_compile_columns () =
  let p =
    Predicate.And
      [ Predicate.Eq ("name", Value.Text "a"); Predicate.Or [ Predicate.Eq ("id", Value.Int 1L); Predicate.Eq ("name", Value.Text "b") ] ]
  in
  Alcotest.(check (list string)) "columns deduped" [ "name"; "id" ] (Predicate.columns p);
  let f = Predicate.compile small_schema p in
  check_bool "matching row" true (f (mk_row 1 "a" None));
  check_bool "or branch fails" false (f (mk_row 2 "a" None));
  check_bool "and leg fails" false (f (mk_row 1 "c" None));
  let q = Predicate.compile small_schema (Predicate.In ("name", [ Value.Text "a"; Value.Text "b" ])) in
  check_bool "in" true (q (mk_row 5 "b" None));
  check_bool "pp non-empty" true (String.length (Format.asprintf "%a" Predicate.pp p) > 10)

(* ---------------- CSV ---------------- *)

let test_csv_parse_basic () =
  check_bool "simple" true
    (Csv.parse "a,b,c\n1,2,3\n" = Ok [ [ "a"; "b"; "c" ]; [ "1"; "2"; "3" ] ]);
  check_bool "no trailing newline" true (Csv.parse "a,b" = Ok [ [ "a"; "b" ] ]);
  check_bool "empty cells" true (Csv.parse ",\n" = Ok [ [ ""; "" ] ]);
  check_bool "crlf" true (Csv.parse "a,b\r\nc,d\r\n" = Ok [ [ "a"; "b" ]; [ "c"; "d" ] ])

let test_csv_parse_quoting () =
  check_bool "embedded comma" true (Csv.parse "\"a,b\",c\n" = Ok [ [ "a,b"; "c" ] ]);
  check_bool "escaped quote" true (Csv.parse "\"say \"\"hi\"\"\"\n" = Ok [ [ "say \"hi\"" ] ]);
  check_bool "embedded newline" true (Csv.parse "\"a\nb\",c\n" = Ok [ [ "a\nb"; "c" ] ]);
  check_bool "unterminated rejected" true (Result.is_error (Csv.parse "\"abc\n"));
  check_bool "garbage after quote rejected" true (Result.is_error (Csv.parse "\"a\"b,c\n"))

let test_csv_render_roundtrip () =
  let rows = [ [ "plain"; "with,comma"; "with\"quote" ]; [ "line\nbreak"; ""; "x" ] ] in
  check_bool "roundtrip" true (Csv.parse (Csv.render rows) = Ok rows)

let test_csv_typed_rows () =
  let rows =
    Csv.typed_rows ~schema:small_schema ~header:true
      [ [ "id"; "name"; "score" ]; [ "1"; "alice"; "2.5" ]; [ "2"; "bob"; "" ] ]
  in
  (match rows with
  | Ok [ r0; r1 ] ->
      check_bool "int" true (r0.(0) = Value.Int 1L);
      check_bool "real" true (r0.(2) = Value.Real 2.5);
      check_bool "empty nullable is NULL" true (r1.(2) = Value.Null)
  | _ -> Alcotest.fail "typed_rows failed");
  check_bool "bad int rejected" true
    (Result.is_error
       (Csv.typed_rows ~schema:small_schema ~header:false [ [ "xx"; "a"; "" ] ]));
  check_bool "wrong header rejected" true
    (Result.is_error
       (Csv.typed_rows ~schema:small_schema ~header:true [ [ "wrong"; "names"; "here" ] ]));
  check_bool "arity mismatch rejected" true
    (Result.is_error (Csv.typed_rows ~schema:small_schema ~header:false [ [ "1" ] ]))

let test_csv_untyped_roundtrip () =
  let typed = [ [| Value.Int 42L; Value.Text "x,y"; Value.Real 1.5 |] ] in
  let cells = Csv.untyped_rows typed in
  match Csv.typed_rows ~schema:small_schema ~header:false cells with
  | Ok [ row ] -> check_bool "roundtrip through cells" true (row = List.hd typed)
  | _ -> Alcotest.fail "roundtrip failed"

(* ---------------- DML: delete / update ---------------- *)

let test_table_delete () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 9 do
    ignore (Table.insert t (mk_row i "x" None))
  done;
  ignore (Table.create_index t ~column:"name");
  check_bool "delete succeeds" true (Table.delete t 3);
  check_bool "second delete is a no-op" false (Table.delete t 3);
  check_int "live count" 9 (Table.live_count t);
  check_int "row count unchanged (tombstone)" 10 (Table.row_count t);
  check_bool "is_live" false (Table.is_live t 3);
  (* Both access paths skip the dead row. *)
  let via_index = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "x")) in
  check_int "index scan skips dead" 9 (Array.length via_index.row_ids);
  let seen = ref 0 in
  Read_view.scan (Table.freeze t) (fun _ _ -> incr seen);
  check_int "seq scan skips dead" 9 !seen

(* An UPDATE is one [Table.apply]: tombstone the old versions, insert
   the new ones, in one epoch. *)
let test_table_update () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let id = Table.insert t (mk_row 0 "before" None) in
  let other = Table.insert t (mk_row 1 "before" None) in
  ignore (Table.create_index t ~column:"name");
  let epoch () = Read_view.epoch (Table.freeze t) in
  let e0 = epoch () in
  let n, new_id =
    Table.apply t ~delete:[| id; other |] ~insert:[| mk_row 0 "after" None; mk_row 1 "after" None |]
  in
  check_int "both tombstoned" 2 n;
  check_int "new versions get fresh ids" 2 new_id;
  check_int "one epoch" (e0 + 1) (epoch ());
  check_bool "old versions dead" false (Table.is_live t id || Table.is_live t other);
  let r = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "after")) in
  Alcotest.(check (array int)) "new values findable" [| 2; 3 |] r.row_ids;
  let r2 = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "before")) in
  check_int "old values gone" 0 (Array.length r2.row_ids);
  check_bool "a dead id is skipped" true (Table.apply t ~delete:[| id |] ~insert:[||] = (0, 4));
  (* A bad row or id raises before anything changes. *)
  let rejected delete insert =
    match Table.apply t ~delete ~insert with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let snap = Table.snapshot t in
  check_bool "bad row rejected" true
    (rejected [| 2 |] [| mk_row 5 "ok" None; [| Value.Null; Value.Text "bad"; Value.Null |] |]);
  check_bool "id out of range rejected" true (rejected [| 3; 4 |] [| mk_row 5 "ok" None |]);
  check_bool "negative id rejected" true (rejected [| -1 |] [||]);
  check_bool "nothing applied" true (Table.snapshot t = snap);
  let e = epoch () in
  check_bool "empty statement" true (Table.apply t ~delete:[||] ~insert:[||] = (0, 4));
  check_int "empty statement publishes no epoch" e (epoch ())

let test_sql_delete_update () =
  let db = Database.create () in
  let t = Database.create_table db ~name:"t" ~schema:small_schema in
  for i = 0 to 19 do
    ignore (Table.insert t (mk_row i (if i mod 2 = 0 then "even" else "odd") None))
  done;
  ignore (Table.create_index t ~column:"name");
  (match Sql.execute db "DELETE FROM t WHERE name = 'odd'" with
  | Ok r -> check_int "deleted" 10 r.affected
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "SELECT * FROM t" with
  | Ok r -> check_int "ten left" 10 (List.length r.rows)
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "UPDATE t SET name = 'renamed' WHERE id BETWEEN 0 AND 5" with
  | Ok r -> check_int "updated" 3 r.affected (* ids 0,2,4 are the even survivors *)
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "SELECT * FROM t WHERE name = 'renamed'" with
  | Ok r -> check_int "renamed rows" 3 (List.length r.rows)
  | Error e -> Alcotest.fail e);
  check_bool "unknown set column" true
    (Result.is_error (Sql.execute db "UPDATE t SET nope = 1"));
  check_bool "type-checked update" true
    (Result.is_error (Sql.execute db "UPDATE t SET name = 5"))

let test_table_insert_batch_equivalent () =
  let build insert_all =
    let t = Table.create ~name:"t" ~schema:small_schema in
    ignore (Table.create_index t ~column:"name");
    insert_all t;
    t
  in
  let rows = Array.init 300 (fun i -> mk_row i (Printf.sprintf "p%d" (i mod 7)) None) in
  let seq = build (fun t -> Array.iter (fun r -> ignore (Table.insert t r)) rows) in
  let batch = build (fun t -> check_int "first id" 0 (Table.insert_batch t rows)) in
  check_int "row_count" (Table.row_count seq) (Table.row_count batch);
  check_int "heap_pages" (Table.heap_pages seq) (Table.heap_pages batch);
  check_int "heap_bytes" (Table.heap_bytes seq) (Table.heap_bytes batch);
  check_int "index_bytes" (Table.index_bytes seq) (Table.index_bytes batch);
  for id = 0 to Table.row_count seq - 1 do
    check_bool (Printf.sprintf "row %d" id) true (Table.peek_row seq id = Table.peek_row batch id);
    check_int (Printf.sprintf "page of %d" id) (Table.row_page seq id) (Table.row_page batch id)
  done;
  (* Indexes were maintained: lookups agree with the sequential build. *)
  for k = 0 to 6 do
    let v = Value.Text (Printf.sprintf "p%d" k) in
    let ids t = Array.to_list (Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", v))).row_ids in
    check_bool (Printf.sprintf "lookup p%d" k) true (List.sort compare (ids seq) = List.sort compare (ids batch))
  done

let test_table_insert_batch_all_or_nothing () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let rows = [| mk_row 0 "ok" None; [| Value.Null; Value.Text "bad"; Value.Null |] |] in
  let raised = try ignore (Table.insert_batch t rows); false with Invalid_argument _ -> true in
  check_bool "invalid row rejected" true raised;
  check_int "nothing applied" 0 (Table.row_count t);
  check_int "empty batch returns next id" 0 (Table.insert_batch t [||]);
  check_int "still empty" 0 (Table.row_count t)

let test_table_vacuum_reclaims () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  (* 1000 rows so the churn spans several heap pages even at columnar
     tuple widths — the page-count shrink below needs real volume. *)
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (i mod 5)) None))
  done;
  let bytes_before = Table.index_bytes t and entries_before = Table_index.entry_count idx in
  (* Churn: update every row once, then delete half the survivors —
     MVCC leaves every old version tombstoned with stale index entries. *)
  for i = 0 to 999 do
    ignore (Table.apply t ~delete:[| i |] ~insert:[| mk_row i (Printf.sprintf "q%d" (i mod 5)) None |])
  done;
  for i = 1000 to 1499 do
    ignore (Table.delete t i)
  done;
  check_int "live rows" 500 (Table.live_count t);
  check_bool "stale entries bloat the index" true (Table_index.entry_count idx > 1000);
  let heap_bloated = Table.heap_bytes t in
  Table.vacuum t;
  (* Index accounting shrinks back to the live rows. *)
  check_int "entry_count = live rows" 500 (Table_index.entry_count idx);
  check_bool "index size shrinks" true (Table.index_bytes t <= bytes_before);
  check_bool "heap shrinks" true (Table.heap_bytes t < heap_bloated);
  check_int "row ids stable" 2000 (Table.row_count t);
  check_int "live rows unchanged" 500 (Table.live_count t);
  ignore (entries_before : int);
  (* No resurrection: scans and index lookups see only live versions. *)
  let seen = ref 0 in
  Read_view.scan (Table.freeze t) (fun _ _ -> incr seen);
  check_int "seq scan" 500 !seen;
  for k = 0 to 4 do
    let gone = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text (Printf.sprintf "p%d" k))) in
    check_int (Printf.sprintf "old version p%d gone" k) 0 (Array.length gone.row_ids);
    let live = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text (Printf.sprintf "q%d" k))) in
    check_int (Printf.sprintf "live version q%d" k) 100 (Array.length live.row_ids)
  done;
  (* Idempotent, and dead ids stay dead. *)
  Table.vacuum t;
  check_int "second vacuum no-op" 500 (Table_index.entry_count idx);
  check_bool "dead id stays dead" false (Table.is_live t 0)

(* ---------------- Columnar storage ---------------- *)

(* Regression: the pre-columnar engine never decremented its byte total
   on delete, so [avg_row_bytes] overreported (total unchanged, live
   count shrinking) until a vacuum. Deleting half of a uniform table
   must leave the average unchanged, and deleting everything must
   report 0, not a division blow-up. *)
let test_avg_row_bytes_tracks_deletes () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%02d%s" i (String.make 60 'x')) None))
  done;
  let before = Table.avg_row_bytes t in
  check_bool "positive" true (before > 0.0);
  for i = 0 to 49 do
    ignore (Table.delete t i)
  done;
  check_bool "uniform rows: average unchanged by deletes" true
    (Float.abs (Table.avg_row_bytes t -. before) < 0.001);
  for i = 50 to 99 do
    ignore (Table.delete t i)
  done;
  check_bool "empty table reports 0" true (Table.avg_row_bytes t = 0.0);
  (* Still 0 after vacuum, and consistent once rows come back. *)
  Table.vacuum t;
  check_bool "still 0 after vacuum" true (Table.avg_row_bytes t = 0.0);
  ignore (Table.insert t (mk_row 0 "fresh" None));
  check_bool "recovers" true (Table.avg_row_bytes t > 0.0)

(* Helper: the name-column dictionary contents of a snapshot, as
   (value, hole?) in id order. *)
let name_dict_entries (s : Table.snapshot) =
  s.Table.s_cols.(1).Table.cs_entries

let test_columnar_vacuum_roundtrip () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  (* 7 distinct names over 300 rows: heavy dictionary sharing. *)
  for i = 0 to 299 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "v%d" (i mod 7)) None))
  done;
  (* Exact physical round-trip of a clean table. *)
  let s1 = Table.snapshot t in
  let r1 = Table.of_snapshot s1 in
  check_bool "clean roundtrip" true (Table.snapshot r1 = s1);
  check_int "restored heap pages" (Table.heap_pages t) (Table.heap_pages r1);
  check_bool "restored avg" true (Table.avg_row_bytes r1 = Table.avg_row_bytes t);
  (* Drop every "v0" row; its dictionary entry must survive until
     vacuum, then become a hole while every other id is untouched. *)
  for i = 0 to 299 do
    if i mod 7 = 0 then ignore (Table.delete t i)
  done;
  let stats = Table.storage_stats t in
  check_int "dict keeps dead values before vacuum" 7 stats.st_columns.(1).st_distinct;
  (* Restored-from-snapshot table must behave identically through the
     same churn — this is what proves the reference counts were rebuilt
     exactly: a wrong count would reclaim the wrong entries below. *)
  let r2 = Table.of_snapshot (Table.snapshot t) in
  Table.vacuum t;
  Table.vacuum r2;
  check_bool "restored table vacuums identically" true (Table.snapshot r2 = Table.snapshot t);
  let ents = name_dict_entries (Table.snapshot t) in
  let holes = Array.length (Array.of_list (List.filter Option.is_none (Array.to_list ents))) in
  check_int "exactly the v0 entry reclaimed" 1 holes;
  check_int "live name entries" 6 (Table.storage_stats t).st_columns.(1).st_distinct;
  check_bool "v0 unfindable" true
    (Array.length (Table_index.lookup idx (Value.Text "v0")) = 0);
  check_bool "v1 intact" true (Array.length (Table_index.lookup idx (Value.Text "v1")) > 0);
  (* All-dead edge: a fully deleted and vacuumed table accounts to
     zero — no pages, no dictionary residue — with row ids intact. *)
  for i = 0 to Table.row_count t - 1 do
    ignore (Table.delete t i)
  done;
  Table.vacuum t;
  check_int "all-dead: no heap pages" 0 (Table.heap_pages t);
  check_int "all-dead: no heap bytes" 0 (Table.heap_bytes t);
  check_int "all-dead: no dict entries" 0 (Table.storage_stats t).st_columns.(1).st_distinct;
  check_int "all-dead: row ids stable" 300 (Table.row_count t);
  check_bool "all-dead: reclaimed rows empty" true (Table.peek_row t 0 = [||]);
  (* Reclaimed-slot edge: new rows append past the holes; the physical
     state — holes included — still round-trips exactly. *)
  let id = Table.insert t (mk_row 1000 "v1" None) in
  check_int "appends past holes" 300 id;
  let s3 = Table.snapshot t in
  let r3 = Table.of_snapshot s3 in
  check_bool "holey roundtrip" true (Table.snapshot r3 = s3);
  check_bool "restored index finds new row" true
    (match Table.index_on r3 ~column:"name" with
    | Some i -> Array.length (Table_index.lookup i (Value.Text "v1")) = 1
    | None -> false)

(* The raw-mode switch (a column that never repeats drops its intern
   table after probation) is a pure function of serialized state, so a
   restored table flips at exactly the same append a crash-free run
   does — grow both side by side and compare the physical state. *)
let test_dict_raw_mode_deterministic_across_restore () =
  let t = Table.create ~name:"t" ~schema:small_schema in
  let row i = mk_row i (Printf.sprintf "unique-%08d" i) None in
  ignore (Table.insert_batch t (Array.init 3000 row));
  check_bool "still interning below probation" true
    (Table.storage_stats t).st_columns.(1).st_interned;
  let r = Table.of_snapshot (Table.snapshot t) in
  (* Push both through the probation threshold. *)
  ignore (Table.insert_batch t (Array.init 3000 (fun i -> row (3000 + i))));
  ignore (Table.insert_batch r (Array.init 3000 (fun i -> row (3000 + i))));
  check_bool "raw mode entered" true
    (not (Table.storage_stats t).st_columns.(1).st_interned);
  check_bool "identical physical state" true (Table.snapshot t = Table.snapshot r);
  check_int "identical heap bytes" (Table.heap_bytes t) (Table.heap_bytes r);
  (* Raw-mode storage is accounted inline, not in the dictionary: once
     the switch happens, more unique rows grow the per-tuple bytes but
     the dictionary charge is frozen. *)
  let before = Table.storage_stats t in
  ignore (Table.insert_batch t (Array.init 1000 (fun i -> row (6000 + i))));
  let after = Table.storage_stats t in
  check_int "dict charge frozen in raw mode" before.st_columns.(1).st_dict_bytes
    after.st_columns.(1).st_dict_bytes;
  check_bool "raw values accounted inline" true
    (after.st_columns.(1).st_ids_bytes > before.st_columns.(1).st_ids_bytes + 1000 * 8)

(* ---------------- QCheck ---------------- *)

(* Random predicates executed through the planner must agree with naive
   row-by-row evaluation — the strongest correctness net for the
   planner/index/filter pipeline. *)
let qcheck_executor_vs_naive =
  let pred_gen =
    let open QCheck.Gen in
    let atom =
      oneof
        [
          map (fun v -> Predicate.Eq ("name", Value.Text (Printf.sprintf "p%d" v))) (int_bound 6);
          map (fun v -> Predicate.Eq ("id", Value.Int (Int64.of_int v))) (int_bound 120);
          map2
            (fun lo hi ->
              Predicate.Range ("id", Some (Value.Int (Int64.of_int (min lo hi))),
                Some (Value.Int (Int64.of_int (max lo hi)))))
            (int_bound 120) (int_bound 120);
          map
            (fun vs ->
              Predicate.In ("name", List.map (fun v -> Value.Text (Printf.sprintf "p%d" v)) vs))
            (list_size (1 -- 3) (int_bound 6));
        ]
    in
    let rec tree depth =
      if depth = 0 then atom
      else
        frequency
          [
            (3, atom);
            (1, map (fun p -> Predicate.Not p) (tree (depth - 1)));
            (1, map (fun ps -> Predicate.And ps) (list_size (1 -- 3) (tree (depth - 1))));
            (1, map (fun ps -> Predicate.Or ps) (list_size (1 -- 3) (tree (depth - 1))));
          ]
    in
    tree 2
  in
  (* One shared table: build once, query many. *)
  let table =
    lazy
      (let t = Table.create ~name:"fuzz" ~schema:small_schema in
       let g = Stdx.Prng.create 99L in
       for i = 0 to 119 do
         ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (Stdx.Prng.int g 6)) None))
       done;
       ignore (Table.create_index t ~column:"name");
       ignore (Table.create_index t ~column:"id");
       t)
  in
  QCheck.Test.make ~name:"executor agrees with naive evaluation" ~count:200 (QCheck.make pred_gen)
    (fun p ->
      let t = Lazy.force table in
      let eval = Predicate.compile small_schema p in
      let expected = ref [] in
      for id = Table.row_count t - 1 downto 0 do
        if eval (Table.peek_row t id) then expected := id :: !expected
      done;
      let got = Array.to_list (Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids p).row_ids in
      List.sort compare got = !expected)

(* Views are isolated from every later mutation: random insert /
   delete / vacuum / create_index sequences with freezes interleaved;
   at the end, each view answers Eq, In and Range over every key of
   every index it holds exactly as it did when taken. *)
let qcheck_views_isolated =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun id k -> `Insert (id, k)) (int_bound 40) (int_bound 9));
          (3, map (fun i -> `Delete i) (int_bound 1000));
          (1, return `Vacuum);
          (1, map (fun c -> `Index c) (oneofl [ "id"; "name" ]));
          (2, return `Freeze);
        ])
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | `Insert (id, k) -> Printf.sprintf "ins(%d,%d)" id k
           | `Delete i -> Printf.sprintf "del(%d)" i
           | `Vacuum -> "vacuum"
           | `Index c -> "index(" ^ c ^ ")"
           | `Freeze -> "freeze")
         ops)
  in
  QCheck.Test.make ~name:"views answer as when taken (btree)" ~count:40
    (QCheck.make ~print QCheck.Gen.(list_size (10 -- 80) op))
    (fun ops ->
      let t = Table.create ~name:"iso" ~schema:small_schema in
      (* Every query over every key an index of the view holds, plus a
         key it never held. *)
      let queries view =
        List.concat_map
          (fun (col, _) ->
            let c = Schema.column_index small_schema col in
            let keys = ref [] in
            for id = 0 to Read_view.row_count view - 1 do
              if not (Read_view.is_reclaimed view id) then keys := (Read_view.peek_row view id).(c) :: !keys
            done;
            let keys = List.sort_uniq Value.compare !keys in
            let absent = if col = "id" then Value.Int 999L else Value.Text "absent" in
            List.map (fun k -> Predicate.Eq (col, k)) (absent :: keys)
            @ [ Predicate.In (col, absent :: keys) ]
            @ List.concat_map
                (fun lo ->
                  [ Predicate.Range (col, Some lo, None); Predicate.Range (col, None, Some lo) ]
                  @ List.map (fun hi -> Predicate.Range (col, Some lo, Some hi)) keys)
                keys)
          (Read_view.indexes view)
      in
      let answer view p =
        let r = Executor.run_view view ~projection:Executor.All_columns p in
        (r.row_ids, r.rows, r.plan)
      in
      let taken = ref [] in
      List.iter
        (function
          | `Insert (id, k) -> ignore (Table.insert t (mk_row id (Printf.sprintf "k%d" k) None))
          | `Delete i -> if Table.row_count t > 0 then ignore (Table.delete t (i mod Table.row_count t))
          | `Vacuum -> Table.vacuum t
          | `Index column -> ignore (Table.create_index t ~column)
          | `Freeze ->
              let v = Table.freeze t in
              taken := (v, List.map (fun p -> (p, answer v p)) (queries v)) :: !taken)
        ops;
      List.for_all
        (fun (v, answers) -> List.for_all (fun (p, a) -> answer v p = a) answers)
        !taken)

let qcheck_csv_roundtrip =
  (* Cells drawn from the hostile alphabet: quotes, commas, bare CR,
     LF (so CR-LF pairs arise), and empty cells (string_size 0). All
     survive because render quotes any cell containing a delimiter and
     parse preserves everything inside quotes verbatim. *)
  let cell =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; 'z'; ' ' ]) (0 -- 8))
  in
  QCheck.Test.make ~name:"csv render/parse roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 5) (list_size (1 -- 5) cell)))
    (fun rows -> Csv.parse (Csv.render rows) = Ok rows)

let qcheck_index_vs_scan =
  QCheck.Test.make ~name:"index scan = seq scan on random data" ~count:30
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 10))
    (fun names ->
      let t = Table.create ~name:"t" ~schema:small_schema in
      List.iteri (fun i n -> ignore (Table.insert t (mk_row i (string_of_int n) None))) names;
      ignore (Table.create_index t ~column:"name");
      List.for_all
        (fun k ->
          let v = Value.Text (string_of_int k) in
          let via_index = Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids (Predicate.Eq ("name", v)) in
          let expected = List.length (List.filter (fun n -> n = k) names) in
          Array.length via_index.row_ids = expected)
        [ 0; 1; 5; 10 ])

(* ---------------- Join ---------------- *)

let join_schema_left =
  Schema.create
    [ { name = "id"; ty = TInt; nullable = false }; { name = "k"; ty = TInt; nullable = true } ]

let mk_join_tables ?(index_left = true) ?(index_right = false) left right =
  let db = Database.create () in
  let tl = Database.create_table db ~name:"l" ~schema:join_schema_left in
  let tr = Database.create_table db ~name:"r" ~schema:join_schema_left in
  let load t rows =
    List.iteri
      (fun i k ->
        ignore
          (Table.insert t
             [| Value.Int (Int64.of_int i); (match k with Some k -> Value.Int (Int64.of_int k) | None -> Value.Null) |]))
      rows
  in
  load tl left;
  load tr right;
  (* One indexed side, one scan side, so both postings paths run. *)
  if index_left then ignore (Table.create_index tl ~column:"k");
  if index_right then ignore (Table.create_index tr ~column:"k");
  (db, tl, tr)

let brute_pairs tl tr =
  let lv = Table.freeze tl and rv = Table.freeze tr in
  let acc = ref [] in
  Read_view.scan lv (fun l lrow ->
      Read_view.scan rv (fun r rrow ->
          match (lrow.(1), rrow.(1)) with
          | Value.Null, _ | _, Value.Null -> ()
          | a, b -> if Value.equal a b then acc := (l, r) :: !acc));
  List.sort compare !acc

let test_join_equi_matches_naive () =
  let left = List.map (fun k -> if k = 7 then None else Some (k mod 5)) (List.init 40 Fun.id) in
  let right = List.map (fun k -> if k = 3 then None else Some (k mod 7)) (List.init 25 Fun.id) in
  let _db, tl, tr = mk_join_tables left right in
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      Join.Equi
  in
  check_bool "equi = brute force" true (Array.to_list jr.Join.pairs = brute_pairs tl tr);
  check_bool "pairs sorted" true
    (let l = Array.to_list jr.Join.pairs in
     l = List.sort_uniq compare l)

let test_join_buckets_overlap_dedup () =
  (* Rows 0..9 all carry k=1. Two buckets both listing tag 1 on both
     sides: the cross product arises twice but must be emitted once. *)
  let _db, tl, tr = mk_join_tables (List.init 4 (fun _ -> Some 1)) (List.init 3 (fun _ -> Some 1)) in
  let spec =
    Join.Buckets
      [| ([ Value.Int 1L ], [ Value.Int 1L ]); ([ Value.Int 1L ], [ Value.Int 1L ]) |]
  in
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      spec
  in
  check_int "deduped cross product" 12 (Array.length jr.Join.pairs);
  check_int "bucket count" 2 (Array.length jr.Join.bucket_pairs);
  (* Per-bucket counts are pre-dedup: what the server observes. *)
  check_int "bucket 0 candidates" 12 jr.Join.bucket_pairs.(0)

let test_join_skips_dead_rows () =
  let _db, tl, tr =
    mk_join_tables ~index_right:true
      (List.init 10 (fun _ -> Some 1))
      (List.init 6 (fun _ -> Some 1))
  in
  ignore (Table.delete tl 0 : bool);
  ignore (Table.delete tr 5 : bool);
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      (Join.Buckets [| ([ Value.Int 1L ], [ Value.Int 1L ]) |])
  in
  check_int "only live pairs" 45 (Array.length jr.Join.pairs);
  check_bool "no dead ids" true
    (Array.for_all (fun (l, r) -> l <> 0 && r <> 5) jr.Join.pairs)

(* ---------------- Multi-table isolation ---------------- *)

let test_multi_table_journal_isolated () =
  let db = Database.create () in
  let events = ref [] in
  Database.set_journal db (Some (fun m -> events := m :: !events));
  let ta = Database.create_table db ~name:"a" ~schema:small_schema in
  let tb = Database.create_table db ~name:"b" ~schema:small_schema in
  ignore (Table.insert ta (mk_row 0 "x" None));
  ignore (Table.insert tb (mk_row 0 "y" None));
  ignore (Table.delete ta 0 : bool);
  Table.vacuum ta;
  let tables_of ev =
    match ev with
    | Journal.Created_table { name; _ } -> name
    | Journal.Created_index { table; _ } -> table
    | Journal.Applied { table; _ } -> table
    | Journal.Vacuumed { table } -> table
  in
  let for_table n = List.filter (fun e -> tables_of e = n) !events in
  check_int "a: create + insert + delete + vacuum" 4 (List.length (for_table "a"));
  check_int "b: create + insert only" 2 (List.length (for_table "b"));
  check_bool "b saw no vacuum" true
    (List.for_all (function Journal.Vacuumed _ -> false | _ -> true) (for_table "b"))

let test_multi_table_vacuum_epoch_isolated () =
  let db = Database.create () in
  let ta = Database.create_table db ~name:"a" ~schema:small_schema in
  let tb = Database.create_table db ~name:"b" ~schema:small_schema in
  for i = 0 to 9 do
    ignore (Table.insert ta (mk_row i "a" None));
    ignore (Table.insert tb (mk_row i "b" None))
  done;
  let vb_before = Table.freeze tb in
  ignore (Table.delete ta 0 : bool);
  ignore (Table.delete ta 1 : bool);
  Table.vacuum ta;
  (* Vacuuming [a] must not move [b]'s epoch or disturb its frozen
     view; [a]'s own epoch must move (the view contract). *)
  let vb_after = Table.freeze tb in
  check_int "b epoch unchanged" (Read_view.epoch vb_before) (Read_view.epoch vb_after);
  check_bool "a epoch advanced" true
    (Read_view.epoch (Table.freeze ta) > Read_view.epoch vb_before || Table.live_count ta = 8);
  let count v =
    let n = ref 0 in
    Read_view.scan v (fun _ _ -> incr n);
    !n
  in
  check_int "old b view intact" 10 (count vb_before);
  check_int "a compacted" 8 (Table.live_count ta);
  (* freeze_pair resolves both and fails cleanly on unknown names. *)
  check_bool "freeze_pair ok" true (Database.freeze_pair db "a" "b" <> None);
  check_bool "freeze_pair unknown" true (Database.freeze_pair db "a" "zz" = None)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sqldb"
    [
      ( "value",
        [
          Alcotest.test_case "compare order" `Quick test_value_compare_order;
          Alcotest.test_case "heap bytes" `Quick test_value_heap_bytes;
          Alcotest.test_case "hash/pp" `Quick test_value_hash_consistent;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "duplicates" `Quick test_schema_rejects_duplicates;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/read" `Quick test_table_insert_read;
          Alcotest.test_case "pages grow" `Quick test_table_pages_grow;
          Alcotest.test_case "row-model bytes fixed" `Quick test_row_model_bytes_fixed;
          Alcotest.test_case "scan" `Quick test_table_scan;
          Alcotest.test_case "insert_batch equivalent" `Quick test_table_insert_batch_equivalent;
          Alcotest.test_case "insert_batch all-or-nothing" `Quick
            test_table_insert_batch_all_or_nothing;
        ] );
      ( "btree",
        [
          Alcotest.test_case "matches naive" `Quick test_index_matches_naive;
          Alcotest.test_case "lookup_many dedups" `Quick test_index_lookup_many_dedups;
          Alcotest.test_case "range" `Quick test_index_range;
          Alcotest.test_case "incremental" `Quick test_index_incremental_after_create;
          Alcotest.test_case "sizes" `Quick test_index_sizes;
        ] );
      ( "pager",
        [
          Alcotest.test_case "cold/warm" `Quick test_pager_cold_warm;
          Alcotest.test_case "stats" `Quick test_pager_stats_accumulate;
          Alcotest.test_case "cache is per domain" `Quick test_pager_cache_per_domain;
          Alcotest.test_case "with_cache restores on exception" `Quick
            test_pager_with_cache_restores;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "pager counters exact under domains" `Quick
            test_pager_counters_exact_multi_domain;
          Alcotest.test_case "view isolated from mutations" `Quick
            test_view_isolated_from_mutations;
          Alcotest.test_case "modeled page counts fixed" `Quick test_modeled_page_counts_fixed;
          Alcotest.test_case "freeze cost bounded" `Quick test_freeze_cost_bounded;
        ] );
      ( "executor",
        [
          Alcotest.test_case "plans" `Quick test_executor_plans;
          Alcotest.test_case "correctness" `Quick test_executor_correctness;
          Alcotest.test_case "residual filter" `Quick test_executor_residual_filter;
          Alcotest.test_case "select * heap cost" `Quick test_executor_select_star_touches_heap;
          Alcotest.test_case "or union" `Quick test_executor_or_union;
          Alcotest.test_case "or/not" `Quick test_executor_or_and_not;
        ] );
      ( "join",
        [
          Alcotest.test_case "equi matches naive" `Quick test_join_equi_matches_naive;
          Alcotest.test_case "bucket overlap dedup" `Quick test_join_buckets_overlap_dedup;
          Alcotest.test_case "skips dead rows" `Quick test_join_skips_dead_rows;
        ] );
      ( "multi-table",
        [
          Alcotest.test_case "journal isolation" `Quick test_multi_table_journal_isolated;
          Alcotest.test_case "vacuum epoch isolation" `Quick
            test_multi_table_vacuum_epoch_isolated;
        ] );
      ("database", [ Alcotest.test_case "catalog" `Quick test_database_catalog ]);
      ("predicate", [ Alcotest.test_case "compile/columns" `Quick test_predicate_compile_columns ]);
      ( "dml",
        [
          Alcotest.test_case "table delete" `Quick test_table_delete;
          Alcotest.test_case "table update" `Quick test_table_update;
          Alcotest.test_case "sql delete/update" `Quick test_sql_delete_update;
          Alcotest.test_case "vacuum reclaims" `Quick test_table_vacuum_reclaims;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "avg_row_bytes tracks deletes" `Quick
            test_avg_row_bytes_tracks_deletes;
          Alcotest.test_case "vacuum roundtrip" `Quick test_columnar_vacuum_roundtrip;
          Alcotest.test_case "raw-mode deterministic" `Quick
            test_dict_raw_mode_deterministic_across_restore;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse basic" `Quick test_csv_parse_basic;
          Alcotest.test_case "parse quoting" `Quick test_csv_parse_quoting;
          Alcotest.test_case "render roundtrip" `Quick test_csv_render_roundtrip;
          Alcotest.test_case "typed rows" `Quick test_csv_typed_rows;
          Alcotest.test_case "untyped roundtrip" `Quick test_csv_untyped_roundtrip;
        ] );
      ( "properties",
        q
          [
            qcheck_index_vs_scan;
            qcheck_executor_vs_naive;
            qcheck_csv_roundtrip;
            qcheck_views_isolated;
          ] );
    ]
