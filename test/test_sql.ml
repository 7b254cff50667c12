(* SQL front-end tests: lexing/parsing of the supported fragment,
   execution against the engine, and the WRE rewriting proxy. *)

open Sqldb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ---------------- Parsing ---------------- *)

let parse_pred s = ok (Sql.parse_predicate s)

let test_parse_predicates () =
  check_bool "eq" true (parse_pred "name = 'Alice'" = Predicate.Eq ("name", Value.Text "Alice"));
  check_bool "int eq" true (parse_pred "id = 42" = Predicate.Eq ("id", Value.Int 42L));
  check_bool "negative int" true (parse_pred "id = -7" = Predicate.Eq ("id", Value.Int (-7L)));
  check_bool "float" true (parse_pred "score = 1.5" = Predicate.Eq ("score", Value.Real 1.5));
  check_bool "null" true (parse_pred "notes = NULL" = Predicate.Eq ("notes", Value.Null));
  check_bool "blob" true (parse_pred "data = x'0aff'" = Predicate.Eq ("data", Value.Blob "\x0a\xff"));
  check_bool "in" true
    (parse_pred "city IN ('a', 'b')" = Predicate.In ("city", [ Value.Text "a"; Value.Text "b" ]));
  check_bool "between" true
    (parse_pred "id BETWEEN 1 AND 9"
    = Predicate.Range ("id", Some (Value.Int 1L), Some (Value.Int 9L)));
  check_bool "le" true (parse_pred "id <= 5" = Predicate.Range ("id", None, Some (Value.Int 5L)));
  check_bool "ge" true (parse_pred "id >= 5" = Predicate.Range ("id", Some (Value.Int 5L), None));
  check_bool "neq" true (parse_pred "id <> 5" = Predicate.Not (Predicate.Eq ("id", Value.Int 5L)))

(* Strict comparisons rewrite to inclusive integer bounds at parse
   time, so everything downstream (executor, proxy, range traversal)
   sees only inclusive [Range]s. The int64 domain edges have no
   representable strict bound, so they collapse to an unsatisfiable
   predicate instead of wrapping around. *)
let test_parse_strict_comparisons () =
  check_bool "lt" true (parse_pred "id < 5" = Predicate.Range ("id", None, Some (Value.Int 4L)));
  check_bool "gt" true (parse_pred "id > 5" = Predicate.Range ("id", Some (Value.Int 6L), None));
  check_bool "lt negative" true
    (parse_pred "id < -7" = Predicate.Range ("id", None, Some (Value.Int (-8L))));
  check_bool "lt min_int is unsatisfiable" true
    (parse_pred "id < -9223372036854775808" = Predicate.Not Predicate.True);
  check_bool "gt max_int is unsatisfiable" true
    (parse_pred "id > 9223372036854775807" = Predicate.Not Predicate.True);
  check_bool "lt max_int stays a range" true
    (parse_pred "id < 9223372036854775807"
    = Predicate.Range ("id", None, Some (Value.Int (Int64.sub Int64.max_int 1L))));
  check_bool "strict real bound rejected" true
    (Result.is_error (Sql.parse_predicate "score < 1.5"));
  check_bool "strict text bound rejected" true (Result.is_error (Sql.parse_predicate "a > 'x'"))

let test_parse_boolean_structure () =
  check_bool "and binds tighter than or" true
    (parse_pred "a = 1 OR b = 2 AND c = 3"
    = Predicate.Or
        [
          Predicate.Eq ("a", Value.Int 1L);
          Predicate.And [ Predicate.Eq ("b", Value.Int 2L); Predicate.Eq ("c", Value.Int 3L) ];
        ]);
  check_bool "parens override" true
    (parse_pred "(a = 1 OR b = 2) AND c = 3"
    = Predicate.And
        [
          Predicate.Or [ Predicate.Eq ("a", Value.Int 1L); Predicate.Eq ("b", Value.Int 2L) ];
          Predicate.Eq ("c", Value.Int 3L);
        ]);
  check_bool "not" true
    (parse_pred "NOT a = 1" = Predicate.Not (Predicate.Eq ("a", Value.Int 1L)))

let test_parse_string_escapes () =
  check_bool "escaped quote" true
    (parse_pred "name = 'O''Brien'" = Predicate.Eq ("name", Value.Text "O'Brien"));
  check_bool "keywords case-insensitive" true
    (parse_pred "a = 1 and b = 2" = Predicate.And [ Predicate.Eq ("a", Value.Int 1L); Predicate.Eq ("b", Value.Int 2L) ])

let test_parse_select_shapes () =
  (match ok (Sql.parse "SELECT * FROM people WHERE name = 'x' LIMIT 5") with
  | Sql.Select s ->
      check_bool "star" true (s.projection = `Star);
      check_str "table" "people" s.table;
      check_bool "limit" true (s.limit = Some 5)
  | _ -> Alcotest.fail "not a select");
  match ok (Sql.parse "select id, name from people") with
  | Sql.Select s ->
      check_bool "columns" true (s.projection = `Columns [ "id"; "name" ]);
      check_bool "no where" true (s.where = Predicate.True)
  | _ -> Alcotest.fail "not a select"

let test_parse_insert_create () =
  (match ok (Sql.parse "INSERT INTO t VALUES (1, 'a', NULL)") with
  | Sql.Insert { table; values } ->
      check_str "table" "t" table;
      check_int "arity" 3 (List.length values)
  | _ -> Alcotest.fail "not an insert");
  match ok (Sql.parse "CREATE TABLE t (id INT NOT NULL, name TEXT, w REAL)") with
  | Sql.Create_table { table; columns } ->
      check_str "table" "t" table;
      check_int "columns" 3 (List.length columns);
      check_bool "not null" true ((List.hd columns).nullable = false)
  | _ -> Alcotest.fail "not a create"

let test_parse_errors () =
  let is_err s = Result.is_error (Sql.parse s) in
  check_bool "garbage" true (is_err "DROP TABLE t");
  check_bool "unterminated string" true (is_err "SELECT * FROM t WHERE a = 'x");
  check_bool "trailing tokens" true (is_err "SELECT * FROM t WHERE a = 1 garbage extra");
  check_bool "keyword as ident" true (is_err "SELECT * FROM where");
  check_bool "strict non-integer bound rejected" true (is_err "SELECT * FROM t WHERE a < 'x'");
  check_bool "bad limit" true (is_err "SELECT * FROM t LIMIT 'x'")

(* ---------------- JOIN parsing ---------------- *)

(* Assert that [sql] fails to parse with an error anchored at the
   first occurrence of [needle] — the offending token's own position,
   not the statement start. *)
let expect_err_at sql needle =
  let idx =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length sql then Alcotest.fail ("needle not in sql: " ^ needle)
      else if String.sub sql i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  match Sql.parse sql with
  | Ok _ -> Alcotest.fail ("parsed unexpectedly: " ^ sql)
  | Error e ->
      let suffix = Printf.sprintf "(at offset %d)" idx in
      check_bool
        (Printf.sprintf "error %S anchored at %d (%s)" e idx needle)
        true
        (String.length e >= String.length suffix
        && String.sub e (String.length e - String.length suffix) (String.length suffix) = suffix)

let test_parse_join_shapes () =
  (match ok (Sql.parse "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = 1 LIMIT 3") with
  | Sql.Select_join j ->
      check_str "left" "a" j.j_left;
      check_str "right" "b" j.j_right;
      check_bool "on left" true (j.j_on_left = { Sql.q_table = "a"; q_column = "x" });
      check_bool "on right" true (j.j_on_right = { Sql.q_table = "b"; q_column = "y" });
      check_bool "where qualified" true (j.j_where = Predicate.Eq ("a.z", Value.Int 1L));
      check_bool "limit" true (j.j_limit = Some 3)
  | _ -> Alcotest.fail "not a join");
  (* ON order is normalized: the left table's reference comes first
     regardless of how the query spells it. *)
  (match ok (Sql.parse "SELECT * FROM a JOIN b ON b.y = a.x") with
  | Sql.Select_join j ->
      check_str "normalized on-left table" "a" j.j_on_left.Sql.q_table;
      check_str "normalized on-right table" "b" j.j_on_right.Sql.q_table
  | _ -> Alcotest.fail "not a join");
  (* Qualified projection, and quoted (dotted) table names. *)
  match ok (Sql.parse "SELECT \"a.b\".x, c.y FROM \"a.b\" JOIN c ON \"a.b\".k = c.k") with
  | Sql.Select_join j ->
      check_bool "projection" true
        (j.j_projection
        = `Columns
            [ { Sql.q_table = "a.b"; q_column = "x" }; { Sql.q_table = "c"; q_column = "y" } ])
  | _ -> Alcotest.fail "not a join"

let test_parse_join_errors () =
  (* Unknown qualifier in ON, anchored at the reference itself. *)
  expect_err_at "SELECT * FROM a JOIN b ON c.x = b.y" "c.x";
  (* Unknown qualifier in WHERE. *)
  expect_err_at "SELECT * FROM a JOIN b ON a.x = b.y WHERE zz.k = 1" "zz.k";
  (* Unknown qualifier in the projection. *)
  expect_err_at "SELECT nope.x FROM a JOIN b ON a.x = b.y" "nope.x";
  (* Qualified reference outside a JOIN. *)
  expect_err_at "SELECT * FROM t WHERE t.x = 1" "t.x";
  expect_err_at "SELECT t.x FROM t" "t.x";
  (* Self-join and single-table ON. *)
  expect_err_at "SELECT * FROM a JOIN a ON a.x = a.y" "a ON";
  expect_err_at "SELECT * FROM a JOIN b ON a.x = a.y" "a.y";
  (* Bare (unqualified) references inside a JOIN are rejected too. *)
  check_bool "bare ON column" true
    (Result.is_error (Sql.parse "SELECT * FROM a JOIN b ON x = b.y"));
  check_bool "bare WHERE column" true
    (Result.is_error (Sql.parse "SELECT * FROM a JOIN b ON a.x = b.y WHERE k = 1"))

let test_execute_plain_join () =
  let db = Database.create () in
  let stmts =
    [
      "CREATE TABLE people (id INT NOT NULL, name TEXT NOT NULL)";
      "CREATE TABLE pets (id INT NOT NULL, owner TEXT NOT NULL, species TEXT NOT NULL)";
    ]
    @ List.init 6 (fun i ->
          Printf.sprintf "INSERT INTO people VALUES (%d, '%s')" i
            (if i mod 2 = 0 then "ann" else "bob"))
    @ List.init 4 (fun i ->
          Printf.sprintf "INSERT INTO pets VALUES (%d, '%s', '%s')" i
            (if i < 3 then "ann" else "zoe")
            (if i mod 2 = 0 then "dog" else "cat"))
  in
  List.iter (fun s -> ignore (ok (Sql.execute db s))) stmts;
  let r = ok (Sql.execute db "SELECT * FROM people JOIN pets ON people.name = pets.owner") in
  check_bool "qualified headers" true
    (r.columns = [ "people.id"; "people.name"; "pets.id"; "pets.owner"; "pets.species" ]);
  (* 3 ann-pets x 3 ann-people; zoe matches nobody. *)
  check_int "rows" 9 (List.length r.rows);
  check_bool "join exec populated" true (r.join_exec <> None);
  let r2 =
    ok
      (Sql.execute db
         "SELECT pets.id FROM people JOIN pets ON people.name = pets.owner WHERE pets.species = \
          'dog' LIMIT 4")
  in
  check_int "where + limit" 4 (List.length r2.rows);
  check_bool "projected" true (List.for_all (fun row -> Array.length row = 1) r2.rows);
  check_bool "missing table error" true
    (Result.is_error (Sql.execute db "SELECT * FROM people JOIN nope ON people.name = nope.x"))

(* ---------------- Execution ---------------- *)

let make_db () =
  let db = Database.create () in
  List.iter
    (fun stmt -> ignore (ok (Sql.execute db stmt)))
    ([ "CREATE TABLE people (id INT NOT NULL, name TEXT NOT NULL, age INT NOT NULL)" ]
    @ List.init 20 (fun i ->
          Printf.sprintf "INSERT INTO people VALUES (%d, '%s', %d)" i
            (if i mod 2 = 0 then "even" else "odd")
            (20 + i)));
  ignore (Table.create_index (Database.table db "people") ~column:"name");
  db

let test_execute_select () =
  let db = make_db () in
  let r = ok (Sql.execute db "SELECT * FROM people WHERE name = 'even'") in
  check_int "rows" 10 (List.length r.rows);
  check_int "all columns" 3 (List.length r.columns);
  check_bool "used the index" true
    ((Option.get r.exec).plan = Executor.Index_scan "name");
  let r2 = ok (Sql.execute db "SELECT name, age FROM people WHERE id BETWEEN 0 AND 4 LIMIT 3") in
  check_int "limited" 3 (List.length r2.rows);
  check_bool "projected" true (List.for_all (fun row -> Array.length row = 2) r2.rows)

let test_execute_errors () =
  let db = make_db () in
  check_bool "missing table" true (Result.is_error (Sql.execute db "SELECT * FROM nope"));
  check_bool "missing column" true
    (Result.is_error (Sql.execute db "SELECT zz FROM people"));
  check_bool "bad insert arity" true
    (Result.is_error (Sql.execute db "INSERT INTO people VALUES (1)"));
  check_bool "duplicate create" true
    (Result.is_error (Sql.execute db "CREATE TABLE people (id INT)"))

(* ---------------- Proxy ---------------- *)

let plain_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "city"; ty = TText; nullable = false };
      { name = "age"; ty = TInt; nullable = false };
    ]

let people =
  List.init 60 (fun i ->
      [|
        Value.Int (Int64.of_int i);
        Value.Text (if i mod 3 = 0 then "ann" else if i mod 3 = 1 then "bob" else "cat");
        Value.Text (if i mod 2 = 0 then "pdx" else "sea");
        Value.Int (Int64.of_int (20 + (i mod 40)));
      |])

let make_proxy_edb kind =
  let db = Database.create () in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq people)
  in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'p') ~k1:(String.make 32 'q') in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~kind ~master ~dist_of ~seed:5L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) people;
  (Wre.Proxy.create edb, edb)

let make_proxy kind = fst (make_proxy_edb kind)

let counter_delta name f =
  let c = Obs.Metrics.counter name in
  let before = Obs.Metrics.counter_value c in
  let x = f () in
  (x, Obs.Metrics.counter_value c - before)

let test_proxy_select_encrypted_eq () =
  List.iter
    (fun kind ->
      let proxy = make_proxy kind in
      let r = ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'ann'") in
      check_int (Wre.Scheme.to_string kind ^ " rows") 20 (List.length r.rows);
      List.iter
        (fun row -> check_bool "right rows" true (row.(1) = Value.Text "ann"))
        r.rows)
    [ Wre.Scheme.Det; Wre.Scheme.Poisson 100.0; Wre.Scheme.Bucketized 100.0 ]

let test_proxy_multi_column_and () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r =
    ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE name = 'ann' AND city = 'pdx'")
  in
  let expected =
    List.length
      (List.filter (fun p -> p.(1) = Value.Text "ann" && p.(2) = Value.Text "pdx") people)
  in
  check_int "conjunction over two encrypted columns" expected (List.length r.rows);
  check_bool "projected one column" true (List.for_all (fun row -> Array.length row = 1) r.rows)

let test_proxy_residual_filter () =
  (* age is not searchable: the proxy must fetch on the name leg and
     filter age client-side. *)
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r =
    ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'bob' AND age BETWEEN 30 AND 39")
  in
  let expected =
    List.length
      (List.filter
         (fun p ->
           p.(1) = Value.Text "bob"
           && match p.(3) with Value.Int a -> a >= 30L && a <= 39L | _ -> false)
         people)
  in
  check_int "residual age filter" expected (List.length r.rows);
  check_bool "server returned a superset" true (r.server_rows >= List.length r.rows)

let test_proxy_key_passthrough () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r = ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE id BETWEEN 5 AND 9") in
  check_int "key range served by index" 5 (List.length r.rows)

let test_proxy_rewrite_shape () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  match Sql.parse "SELECT * FROM people WHERE name = 'ann' AND age = 25" with
  | Ok (Sql.Select s) ->
      let rw = ok (Wre.Proxy.rewrite_select proxy s) in
      check_bool "server side is a tag IN-list" true
        (match rw.server_predicate with Predicate.In ("name_tag", _ :: _) -> true | _ -> false);
      check_bool "age stays client-side" true
        (List.mem "age" (Predicate.columns rw.residual));
      check_bool "server sql mentions tags" true
        (String.length rw.server_sql > 0
        &&
        let re = "name_tag" in
        let found = ref false in
        String.iteri
          (fun i _ ->
            if i + String.length re <= String.length rw.server_sql
               && String.sub rw.server_sql i (String.length re) = re
            then found := true)
          rw.server_sql;
        !found)
  | _ -> Alcotest.fail "parse failed"

let test_proxy_insert_and_search () =
  let proxy = make_proxy (Wre.Scheme.Fixed 5) in
  ignore (ok (Wre.Proxy.execute proxy "INSERT INTO people VALUES (100, 'ann', 'pdx', 33)"));
  let r = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE name = 'ann' AND id >= 100") in
  check_int "finds the inserted row" 1 (List.length r.rows)

let test_proxy_unknown_plaintext_insert () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  check_bool "outside-distribution insert rejected" true
    (Result.is_error (Wre.Proxy.execute proxy "INSERT INTO people VALUES (101, 'zoe', 'pdx', 30)"))

(* A one-table proxy resolves table names exactly, as [Sql.execute]
   does: a statement on an unknown table fails rather than answering
   from the sole registered table. *)
let test_proxy_unknown_table () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  List.iter
    (fun sql ->
      match Wre.Proxy.execute proxy sql with
      | Error e -> Alcotest.(check string) sql {|no such encrypted table "nosuch"|} e
      | Ok _ -> Alcotest.failf "%s: answered from another table" sql)
    [
      "SELECT * FROM nosuch WHERE name = 'ann'";
      "SELECT id FROM nosuch";
      "INSERT INTO nosuch VALUES (100, 'ann', 'pdx', 33)";
      "UPDATE nosuch SET city = 'sea' WHERE name = 'ann'";
      "DELETE FROM nosuch WHERE name = 'ann'";
    ]

let test_proxy_or_across_encrypted_columns () =
  (* Both legs rewrite to tag IN-lists, so the server evaluates the OR
     itself as a union of index lookups — it must NOT ship the whole
     table (the pre-fix silent degradation). *)
  let proxy, edb = make_proxy_edb (Wre.Scheme.Poisson 100.0) in
  let sql = "SELECT * FROM people WHERE name = 'ann' OR city = 'sea'" in
  let r, full_scans = counter_delta "proxy.full_scan_total" (fun () -> ok (Wre.Proxy.execute proxy sql)) in
  let expected =
    List.length
      (List.filter (fun p -> p.(1) = Value.Text "ann" || p.(2) = Value.Text "sea") people)
  in
  check_int "disjunction exact" expected (List.length r.rows);
  check_int "server shipped only the union" expected r.server_rows;
  check_int "not flagged as a full scan" 0 full_scans;
  check_bool "executor ran an index union" true
    (match r.exec with
    | Some e -> e.Executor.plan = Executor.Or_index_scan [ "name_tag"; "city_tag" ]
    | None -> false);
  (* The rewrite shape itself: OR of tag IN-lists server-side, the
     original plaintext OR kept as the residual. *)
  match Sql.parse sql with
  | Ok (Sql.Select s) ->
      let rw = ok (Wre.Proxy.rewrite_select proxy s) in
      check_bool "server OR of tag lists" true
        (match rw.server_predicate with
        | Predicate.Or [ Predicate.In ("name_tag", _ :: _); Predicate.In ("city_tag", _ :: _) ] ->
            true
        | _ -> false);
      check_bool "residual keeps the plaintext OR" true
        (match rw.residual with Predicate.Or [ _; _ ] -> true | _ -> false);
      check_bool "explain plans the union" true
        (Executor.explain (Wre.Encrypted_db.freeze edb) rw.server_predicate
        = Executor.Or_index_scan [ "name_tag"; "city_tag" ])
  | _ -> Alcotest.fail "parse failed"

let test_proxy_or_fallback_full_scan () =
  (* One leg (age) is not server-checkable: the whole OR degrades to a
     full scan, which must stay exact and be surfaced in metrics. *)
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r, full_scans =
    counter_delta "proxy.full_scan_total" (fun () ->
        ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'ann' OR age >= 50"))
  in
  let expected =
    List.length
      (List.filter
         (fun p ->
           p.(1) = Value.Text "ann" || match p.(3) with Value.Int a -> a >= 50L | _ -> false)
         people)
  in
  check_int "degraded OR exact" expected (List.length r.rows);
  check_int "server shipped the whole table" 60 r.server_rows;
  check_int "full scan surfaced" 1 full_scans

let test_proxy_not_on_encrypted_column () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE NOT name = 'ann'") in
  check_int "negation exact" 40 (List.length r.rows)

let test_proxy_limit_after_fp_filter () =
  (* LIMIT must count decrypted true positives, not raw server rows. *)
  let proxy = make_proxy (Wre.Scheme.Bucketized 10.0) in
  let r = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE name = 'ann' LIMIT 7") in
  check_int "limit applied post-filter" 7 (List.length r.rows)

let test_proxy_bucketized_fp_filtered () =
  let proxy = make_proxy (Wre.Scheme.Bucketized 10.0) in
  let r = ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE city = 'pdx'") in
  check_int "exact after residual filter" 30 (List.length r.rows);
  check_bool "server sent false positives" true (r.server_rows >= 30)

let test_proxy_delete_respects_false_positives () =
  (* DELETE through the proxy must decrypt + residual-filter before
     tombstoning, so bucketized false positives survive. *)
  let proxy = make_proxy (Wre.Scheme.Bucketized 10.0) in
  let r = ok (Wre.Proxy.execute proxy "DELETE FROM people WHERE name = 'ann'") in
  check_int "deleted exactly the anns" 20 r.affected;
  check_bool "server saw a superset" true (r.server_rows >= 20);
  let remaining = ok (Wre.Proxy.execute proxy "SELECT * FROM people") in
  check_int "others intact" 40 (List.length remaining.rows);
  check_bool "no ann left" true
    (List.for_all (fun row -> row.(1) <> Value.Text "ann") remaining.rows)

let test_proxy_update_reencrypts () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r = ok (Wre.Proxy.execute proxy "UPDATE people SET city = 'sea' WHERE name = 'bob'") in
  check_int "updated the bobs" 20 r.affected;
  let bobs = ok (Wre.Proxy.execute proxy "SELECT city FROM people WHERE name = 'bob'") in
  check_int "still findable" 20 (List.length bobs.rows);
  check_bool "all moved" true (List.for_all (fun row -> row.(0) = Value.Text "sea") bobs.rows);
  (* And the new city value is searchable through its own tags. *)
  let sea = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE city = 'sea' AND name = 'bob'") in
  check_int "searchable under new value" 20 (List.length sea.rows)

let test_proxy_update_outside_distribution () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  check_bool "rejected without fallback" true
    (Result.is_error (Wre.Proxy.execute proxy "UPDATE people SET name = 'newname' WHERE id = 1"))

let test_proxy_update_atomic () =
  (* A multi-row UPDATE whose replacement value cannot be encrypted
     must leave the table byte-for-byte unchanged — the pre-fix
     delete-then-insert loop tombstoned rows before discovering the
     replacement was outside the distribution, losing data. *)
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  check_bool "batch update rejected" true
    (Result.is_error (Wre.Proxy.execute proxy "UPDATE people SET name = 'zoe' WHERE name = 'ann'"));
  let all = ok (Wre.Proxy.execute proxy "SELECT * FROM people") in
  check_int "no row lost" 60 (List.length all.rows);
  let anns = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE name = 'ann'") in
  check_int "all anns survive, still searchable" 20 (List.length anns.rows)

let test_proxy_limit_decrypts_lazily () =
  (* LIMIT n must stop decrypting after the n-th surviving row instead
     of decrypting the server's whole answer (20 anns here). *)
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r, decrypted =
    counter_delta "edb.rows_decrypted_total" (fun () ->
        ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'ann' LIMIT 5"))
  in
  check_int "limited rows" 5 (List.length r.rows);
  check_bool "server answered with all matches" true (r.server_rows >= 20);
  check_int "decrypted only what LIMIT needed" 5 decrypted;
  (* Bucketized false positives still cost decryptions, but never more
     than the server's answer and never the rest after the n-th hit. *)
  let proxy = make_proxy (Wre.Scheme.Bucketized 10.0) in
  let r, decrypted =
    counter_delta "edb.rows_decrypted_total" (fun () ->
        ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'ann' LIMIT 7"))
  in
  check_int "limited rows post-filter" 7 (List.length r.rows);
  check_bool "decrypted at most the server answer" true (decrypted <= r.server_rows);
  check_bool "decrypted at least the survivors" true (decrypted >= 7)

(* (result, rows decrypted, columns decrypted) of one statement. *)
let decrypt_deltas proxy sql =
  let (r, rows), cols =
    counter_delta "edb.columns_decrypted_total" (fun () ->
        counter_delta "edb.rows_decrypted_total" (fun () -> Wre.Proxy.execute proxy sql))
  in
  (r, rows, cols)

let test_proxy_decrypts_only_read_columns () =
  (* Bucketized, so the server answer carries false positives that must
     still be decrypted (on the residual's column) and dropped. *)
  let proxy, edb = make_proxy_edb (Wre.Scheme.Bucketized 10.0) in
  let arity = Schema.arity (Wre.Encrypted_db.plain_schema edb) in
  let r, rows, cols = decrypt_deltas proxy "SELECT id FROM people WHERE name = 'ann'" in
  let r = ok r in
  check_bool "false positives fetched" true (r.server_rows > 20);
  check_int "id rows" 20 (List.length r.rows);
  check_int "every server row decrypted" r.server_rows rows;
  check_int "SELECT id decrypts the residual's column" r.server_rows cols;
  let r, _, cols = decrypt_deltas proxy "SELECT * FROM people WHERE name = 'ann'" in
  let r = ok r in
  check_int "star rows" 20 (List.length r.rows);
  check_int "SELECT * decrypts every non-key column" (r.server_rows * (arity - 1)) cols;
  let r, _, cols =
    decrypt_deltas proxy "SELECT age, id FROM people WHERE name = 'bob' AND city = 'pdx'"
  in
  let r = ok r in
  check_bool "subset projection" true
    (List.sort compare (List.map Array.to_list r.rows)
    = List.sort compare
        (List.filter_map
           (fun p ->
             if p.(1) = Value.Text "bob" && p.(2) = Value.Text "pdx" then Some [ p.(3); p.(0) ]
             else None)
           people));
  check_int "projection + residual columns" (r.server_rows * 3) cols;
  let r, rows, cols = decrypt_deltas proxy "SELECT nope FROM people WHERE name = 'ann'" in
  check_bool "unknown projected column" true (r = Error "projected column does not exist");
  check_int "fails before decrypting" 0 (rows + cols);
  let r, _, cols = decrypt_deltas proxy "SELECT id FROM people WHERE id = 7" in
  check_int "key-only statement" 1 (List.length (ok r).rows);
  check_int "key-only statement decrypts nothing" 0 cols;
  let r, _, cols = decrypt_deltas proxy "DELETE FROM people WHERE name = 'cat' AND age >= 40" in
  let r = ok r in
  check_int "delete count"
    (List.length
       (List.filter
          (fun p ->
            p.(1) = Value.Text "cat" && match p.(3) with Value.Int a -> a >= 40L | _ -> false)
          people))
    r.affected;
  check_int "DELETE decrypts its residual's columns" (r.server_rows * 2) cols;
  let r, _, cols = decrypt_deltas proxy "UPDATE people SET city = 'sea' WHERE name = 'bob'" in
  let r = ok r in
  check_int "update count" 20 r.affected;
  check_int "UPDATE decrypts whole rows" (r.server_rows * (arity - 1)) cols;
  let r = ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'bob'") in
  check_bool "updated rows intact" true
    (List.for_all (fun row -> row.(2) = Value.Text "sea" && row.(3) <> Value.Null) r.rows)

(* ---------------- Proxy: what the executor fetches ---------------- *)

(* The [make_proxy_edb] table with [age] also range-indexed, so a range
   predicate takes the traversal plan. *)
let make_range_proxy_edb kind =
  let db = Database.create () in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq people)
  in
  let ages = Array.of_list (List.map (fun p -> match p.(3) with Value.Int a -> a | _ -> 0L) people) in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'p') ~k1:(String.make 32 'q') in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~range_columns:[ ("age", 8) ]
      ~range_training:(fun _ -> ages) ~kind ~master ~dist_of ~seed:5L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) people;
  (Wre.Proxy.create edb, edb)

(* The distinct sets of non-NULL encrypted-schema positions across the
   rows the executor fetched. *)
let fetched_position_sets (exec : Executor.result) =
  List.sort_uniq compare
    (List.map
       (fun row ->
         List.filter (fun p -> row.(p) <> Value.Null) (List.init (Array.length row) Fun.id))
       (Array.to_list exec.rows))

let enc_positions edb names =
  List.map (Schema.column_index (Wre.Encrypted_db.encrypted_schema edb)) names

(* Run [stmt] through the proxy, and the server side of [select_sql]
   (a SELECT with the same WHERE) with [All_columns]. Outside a cache
   every page touch is a hit, so the two stats differ only in
   transfer. *)
let against_all_columns proxy edb ~select_sql stmt =
  let s = match ok (Sql.parse select_sql) with Sql.Select s -> s | _ -> Alcotest.fail "not a SELECT" in
  let server = (ok (Wre.Proxy.rewrite_select proxy s)).Wre.Proxy.server_predicate in
  let view = Wre.Encrypted_db.freeze edb in
  let full =
    match Wre.Proxy.range_cover_for proxy ~table:s.table s.where with
    | Some (col, roots) ->
        Executor.run_traverse view
          ~tree:(Wre.Encrypted_db.range_tree edb col)
          ~tag_column:(Wre.Encrypted_db.rtag_column col)
          ~roots ~projection:Executor.All_columns server
    | None -> Executor.run_view view ~projection:Executor.All_columns server
  in
  let r = ok (Wre.Proxy.execute proxy stmt) in
  (r, Option.get r.exec, full)

let check_fetch ~what edb (exec : Executor.result) (full : Executor.result) names =
  check_bool (what ^ ": fetched rows") true (exec.row_ids = full.row_ids && Array.length exec.rows > 0);
  check_bool (what ^ ": exact fetched positions") true
    (fetched_position_sets exec = [ enc_positions edb names ]);
  check_int (what ^ ": page touches") (full.stats.hits + full.stats.misses)
    (exec.stats.hits + exec.stats.misses);
  check_int (what ^ ": rows examined") full.stats.rows_examined exec.stats.rows_examined;
  check_bool (what ^ ": less modeled transfer") true (exec.stats.sim_ns < full.stats.sim_ns)

let test_proxy_fetches_only_read_cells () =
  let proxy, edb = make_proxy_edb (Wre.Scheme.Bucketized 10.0) in
  let where = " FROM people WHERE name = 'ann'" in
  let _, exec, full = against_all_columns proxy edb ~select_sql:("SELECT *" ^ where) ("SELECT id" ^ where) in
  check_fetch ~what:"SELECT id" edb exec full [ "id"; "name_data" ];
  let _, exec, full = against_all_columns proxy edb ~select_sql:("SELECT *" ^ where) ("SELECT *" ^ where) in
  check_fetch ~what:"SELECT *" edb exec full [ "id"; "name_data"; "city_data"; "age_data" ];
  let where = " FROM people WHERE name = 'cat' AND age >= 40" in
  let r, exec, full = against_all_columns proxy edb ~select_sql:("SELECT *" ^ where) ("DELETE" ^ where) in
  check_bool "DELETE deleted" true (r.affected > 0);
  check_fetch ~what:"DELETE" edb exec full [ "name_data"; "age_data" ];
  let r, exec, full =
    against_all_columns proxy edb ~select_sql:"SELECT * FROM people WHERE name = 'bob'"
      "UPDATE people SET city = 'sea' WHERE name = 'bob'"
  in
  check_bool "UPDATE updated" true (r.affected > 0);
  check_fetch ~what:"UPDATE" edb exec full [ "id"; "name_data"; "city_data"; "age_data" ];
  let updated = ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'bob'") in
  check_bool "UPDATE rewrote whole rows" true
    (List.for_all
       (fun row -> row.(2) = Value.Text "sea" && Array.for_all (fun v -> v <> Value.Null) row)
       updated.rows);
  let proxy, edb = make_range_proxy_edb (Wre.Scheme.Bucketized 10.0) in
  let sql = "SELECT id FROM people WHERE age BETWEEN 30 AND 39" in
  let r, exec, full = against_all_columns proxy edb ~select_sql:sql sql in
  check_bool "range traversal plan" true (exec.plan = Executor.Range_traverse "age_rtag");
  check_int "range rows"
    (List.length
       (List.filter (fun p -> match p.(3) with Value.Int a -> a >= 30L && a <= 39L | _ -> false) people))
    (List.length r.rows);
  check_fetch ~what:"range traversal" edb exec full [ "id"; "age_data" ];
  (* An unknown residual column fails before the executor runs: no
     full scan of the table for a statement that cannot succeed. *)
  let queries = Obs.Metrics.counter "executor.queries_total" in
  let before = Obs.Metrics.counter_value queries in
  check_bool "unknown residual column" true
    (Wre.Proxy.execute proxy "SELECT id FROM people WHERE nope = 3"
    = Error "residual predicate references an unknown column");
  check_bool "unknown projected column" true
    (Wre.Proxy.execute proxy "SELECT nope FROM people WHERE name = 'ann'"
    = Error "projected column does not exist");
  check_int "neither reached the executor" before (Obs.Metrics.counter_value queries)

(* [Executor.explain] returns the plan [run_view] runs, cover
   expansion included, for every range shape the proxy ships. *)
let test_proxy_explain_matches_run () =
  let proxy, edb = make_range_proxy_edb (Wre.Scheme.Poisson 100.0) in
  List.iter
    (fun (where, plan) ->
      let sql = "SELECT * FROM people WHERE " ^ where in
      let s = match ok (Sql.parse sql) with Sql.Select s -> s | _ -> Alcotest.fail "not a SELECT" in
      let server = (ok (Wre.Proxy.rewrite_select proxy s)).Wre.Proxy.server_predicate in
      let exec = Option.get (ok (Wre.Proxy.execute proxy sql)).exec in
      check_bool (where ^ ": explain = run") true
        (Executor.explain (Wre.Encrypted_db.freeze edb) server = exec.plan);
      check_bool (where ^ ": plan") true (exec.plan = plan))
    [
      ("age BETWEEN 30 AND 39", Executor.Range_traverse "age_rtag");
      ("name = 'ann' AND age BETWEEN 30 AND 39", Executor.Range_traverse "age_rtag");
      ( "age BETWEEN 20 AND 25 OR age BETWEEN 50 AND 55",
        Executor.Or_index_scan [ "age_rtag"; "age_rtag" ] );
      ("age BETWEEN 30 AND 39 OR name = 'ann'", Executor.Or_index_scan [ "age_rtag"; "name_tag" ]);
      ("name = 'ann'", Executor.Index_scan "name_tag");
    ]

(* [range.edge_fp_rows_total] counts the decrypted rows of the range
   leg at conjunctive position that fall outside the true range: for a
   bare BETWEEN, every server row the client drops. A range under OR
   counts none. *)
let test_proxy_counts_edge_fps () =
  let proxy, _ = make_range_proxy_edb (Wre.Scheme.Poisson 100.0) in
  let edge_fps sql =
    counter_delta "range.edge_fp_rows_total" (fun () -> ok (Wre.Proxy.execute proxy sql))
  in
  let r, fps = edge_fps "SELECT id FROM people WHERE age BETWEEN 30 AND 39" in
  check_int "bare BETWEEN: server rows minus result rows" (r.server_rows - List.length r.rows) fps;
  check_bool "edge buckets returned false positives" true (fps > 0);
  let r, fps = edge_fps "SELECT id FROM people WHERE age BETWEEN 30 AND 39 OR age BETWEEN 50 AND 52" in
  check_bool "range under OR returned false positives" true (r.server_rows > List.length r.rows);
  check_int "range under OR counts none" 0 fps

let test_proxy_in_list_on_encrypted_column () =
  let proxy = make_proxy (Wre.Scheme.Poisson 100.0) in
  let r = ok (Wre.Proxy.execute proxy "SELECT id FROM people WHERE name IN ('ann', 'cat')") in
  check_int "union of both values" 40 (List.length r.rows)

(* ---------------- Proxy: encrypted equi-joins ---------------- *)

let pets_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "owner"; ty = TText; nullable = false };
      { name = "species"; ty = TText; nullable = false };
    ]

let pets =
  (* Owners: ann and bob join people; zoe joins nobody (and people's
     cat has no pets) — both one-sided support tails are exercised. *)
  List.init 30 (fun i ->
      [|
        Value.Int (Int64.of_int i);
        Value.Text (match i mod 3 with 0 -> "ann" | 1 -> "bob" | _ -> "zoe");
        Value.Text (if i mod 2 = 0 then "dog" else "cat");
      |])

let make_join_proxy_edbs kind =
  let db = Database.create () in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'p') ~k1:(String.make 32 'q') in
  let dist_people =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq people)
  in
  let dist_pets =
    Wre.Dist_est.of_rows ~schema:pets_schema ~columns:[ "owner"; "species" ] (List.to_seq pets)
  in
  let ep =
    Wre.Encrypted_db.create ~db ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~kind ~master ~dist_of:dist_people ~seed:5L ()
  in
  let et =
    Wre.Encrypted_db.create ~db ~name:"pets" ~plain_schema:pets_schema ~key_column:"id"
      ~encrypted_columns:[ "owner"; "species" ] ~kind ~master ~dist_of:dist_pets ~seed:6L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert ep r)) people;
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert et r)) pets;
  (Wre.Proxy.create_multi [ ep; et ], ep, et)

let make_join_proxy kind =
  let proxy, _, _ = make_join_proxy_edbs kind in
  proxy

(* The plaintext oracle for the same two tables. *)
let join_reference sql =
  let db = Database.create () in
  let tp = Database.create_table db ~name:"people" ~schema:plain_schema in
  let tt = Database.create_table db ~name:"pets" ~schema:pets_schema in
  List.iter (fun r -> ignore (Table.insert tp r)) people;
  List.iter (fun r -> ignore (Table.insert tt r)) pets;
  ok (Sql.execute db sql)

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let test_proxy_join_matches_plaintext () =
  let sql = "SELECT * FROM people JOIN pets ON people.name = pets.owner" in
  let expected = join_reference sql in
  List.iter
    (fun kind ->
      let proxy = make_join_proxy kind in
      let r = ok (Wre.Proxy.execute proxy sql) in
      check_bool
        (Wre.Scheme.to_string kind ^ " qualified headers")
        true
        (r.columns
        = [
            "people.id"; "people.name"; "people.city"; "people.age"; "pets.id"; "pets.owner";
            "pets.species";
          ]);
      check_bool
        (Wre.Scheme.to_string kind ^ " join matches plaintext")
        true
        (sorted_rows r.rows = sorted_rows expected.rows);
      let jr = Option.get r.join_exec in
      check_bool "candidates are a superset" true
        (Array.length jr.Join.pairs >= List.length r.rows))
    [ Wre.Scheme.Det; Wre.Scheme.Fixed 5; Wre.Scheme.Poisson 100.0; Wre.Scheme.Bucketized 10.0 ]

let test_proxy_join_decrypts_on_columns () =
  (* Projecting only ids, each distinct row decrypts just its side's ON
     column, once. *)
  let proxy = make_join_proxy (Wre.Scheme.Bucketized 10.0) in
  let sql = "SELECT people.id, pets.id FROM people JOIN pets ON people.name = pets.owner" in
  let r, rows, cols = decrypt_deltas proxy sql in
  let r = ok r in
  check_bool "join ids match plaintext" true
    (sorted_rows r.rows = sorted_rows (join_reference sql).rows);
  let distinct (r : Wre.Proxy.query_result) side =
    let seen = Hashtbl.create 64 in
    Array.iter (fun p -> Hashtbl.replace seen (side p) ()) (Option.get r.join_exec).Join.pairs;
    Hashtbl.length seen
  in
  let distinct_rows = distinct r fst + distinct r snd in
  check_int "one decryption per distinct row" distinct_rows rows;
  check_int "one column per distinct row" distinct_rows cols;
  let sql =
    "SELECT pets.id FROM people JOIN pets ON people.name = pets.owner WHERE people.age >= 30"
  in
  let r, rows, cols = decrypt_deltas proxy sql in
  let r = ok r in
  check_bool "WHERE join matches plaintext" true
    (sorted_rows r.rows = sorted_rows (join_reference sql).rows);
  check_int "WHERE column decrypted on its side only" (rows + distinct r fst) cols

(* Each side fetches exactly its ON, WHERE and projected columns: the
   join's modeled transfer is its 16 bytes per candidate pair plus, for
   each distinct row, the projected tuple of exactly those cells. *)
let test_proxy_join_fetches_read_columns () =
  let proxy, ep, et = make_join_proxy_edbs (Wre.Scheme.Bucketized 10.0) in
  let transfer f = counter_delta "pager.bytes_transferred_total" f in
  let read_bytes edb ids names =
    let view = Wre.Encrypted_db.freeze edb in
    let positions = Array.of_list (enc_positions edb names) in
    snd (transfer (fun () -> List.iter (fun id -> ignore (Read_view.read_cols view id positions)) ids))
  in
  List.iter
    (fun (sql, left, right) ->
      let r, bytes = transfer (fun () -> ok (Wre.Proxy.execute proxy sql)) in
      check_bool ("join matches plaintext: " ^ sql) true
        (sorted_rows r.rows = sorted_rows (join_reference sql).rows);
      let pairs = (Option.get r.join_exec).Join.pairs in
      let distinct side = List.sort_uniq compare (Array.to_list (Array.map side pairs)) in
      let expected =
        (16 * Array.length pairs) + read_bytes ep (distinct fst) left + read_bytes et (distinct snd) right
      in
      check_int ("fetched cells: " ^ sql) expected bytes;
      check_bool ("fewer than whole rows: " ^ sql) true
        (bytes
        < (16 * Array.length pairs)
          + read_bytes ep (distinct fst) [ "id"; "name_tag"; "name_data"; "city_tag"; "city_data"; "age_data" ]
          + read_bytes et (distinct snd) [ "id"; "owner_tag"; "owner_data"; "species_tag"; "species_data" ]))
    [
      ( "SELECT people.id, pets.id FROM people JOIN pets ON people.name = pets.owner",
        [ "id"; "name_data" ],
        [ "id"; "owner_data" ] );
      ( "SELECT pets.id FROM people JOIN pets ON people.name = pets.owner WHERE people.age >= 30",
        [ "name_data"; "age_data" ],
        [ "id"; "owner_data" ] );
      ( "SELECT people.city FROM people JOIN pets ON people.name = pets.owner WHERE pets.species = \
         'dog'",
        [ "name_data"; "city_data" ],
        [ "owner_data"; "species_data" ] );
    ]

let test_proxy_join_residual_where_and_limit () =
  let proxy = make_join_proxy (Wre.Scheme.Bucketized 10.0) in
  (* species is encrypted but the WHERE leg is residual-verified
     client-side; age is not searchable at all. *)
  let sql =
    "SELECT pets.id FROM people JOIN pets ON people.name = pets.owner WHERE pets.species = 'dog' \
     AND people.age >= 30"
  in
  let expected = join_reference sql in
  let r = ok (Wre.Proxy.execute proxy sql) in
  check_bool "residual WHERE exact" true (sorted_rows r.rows = sorted_rows expected.rows);
  let rl = ok (Wre.Proxy.execute proxy (sql ^ " LIMIT 5")) in
  check_int "limit after verification" 5 (List.length rl.rows);
  check_bool "limited rows are true matches" true
    (List.for_all (fun row -> List.mem (Array.to_list row) (sorted_rows expected.rows)) rl.rows)

let test_proxy_join_bucketized_verifies_fps () =
  (* Under aggressive bucketization the server's candidate pairs are a
     strict superset somewhere; the client must filter them all. *)
  let proxy = make_join_proxy (Wre.Scheme.Bucketized 10.0) in
  let sql = "SELECT * FROM people JOIN pets ON people.name = pets.owner" in
  let expected = join_reference sql in
  let r = ok (Wre.Proxy.execute proxy sql) in
  check_bool "exact despite FPs" true (sorted_rows r.rows = sorted_rows expected.rows);
  check_int "server_rows = candidate pairs" r.server_rows
    (Array.length (Option.get r.join_exec).Join.pairs)

let test_proxy_join_errors () =
  let proxy = make_join_proxy (Wre.Scheme.Poisson 100.0) in
  (* Joins need exact table names: no single-table fallback. *)
  check_bool "unknown table" true
    (Result.is_error
       (Wre.Proxy.execute proxy "SELECT * FROM people JOIN nope ON people.name = nope.x"));
  (* ON must target searchable encrypted columns. *)
  check_bool "non-encrypted ON column" true
    (Result.is_error
       (Wre.Proxy.execute proxy "SELECT * FROM people JOIN pets ON people.age = pets.id"))

let test_proxy_rewrite_join_buckets () =
  let proxy = make_join_proxy (Wre.Scheme.Poisson 100.0) in
  match Sql.parse "SELECT * FROM people JOIN pets ON people.name = pets.owner" with
  | Ok (Sql.Select_join j) ->
      let buckets = ok (Wre.Proxy.rewrite_join proxy j) in
      (* Shared support is {ann, bob}: people has no zoe, pets no cat. *)
      let names = List.sort compare (Array.to_list (Array.map (fun (m, _, _) -> m) buckets)) in
      check_bool "buckets = shared support" true (names = [ "ann"; "bob" ]);
      Array.iter
        (fun (_, l, r) ->
          check_bool "both sides have tags" true (l <> [] && r <> []))
        buckets
  | _ -> Alcotest.fail "parse failed"

(* ---------------- Printer: quoted identifiers, round-trip ---------------- *)

let test_quoted_identifiers () =
  check_bool "keyword as quoted column" true
    (parse_pred "\"select\" = 1" = Predicate.Eq ("select", Value.Int 1L));
  check_bool "quote escape" true (parse_pred "\"a\"\"b\" = 1" = Predicate.Eq ("a\"b", Value.Int 1L));
  check_bool "spaces and case preserved" true
    (parse_pred "\"Weird Name\" = 'x'" = Predicate.Eq ("Weird Name", Value.Text "x"));
  (match ok (Sql.parse "SELECT \"from\", name FROM \"order table\"") with
  | Sql.Select s ->
      check_bool "quoted projection" true (s.projection = `Columns [ "from"; "name" ]);
      check_str "quoted table" "order table" s.table
  | _ -> Alcotest.fail "not a select");
  check_bool "unterminated rejected" true (Result.is_error (Sql.parse_predicate "\"a = 1"));
  check_str "printer quotes keywords" "\"select\" = 1"
    (Sql.print_predicate (Predicate.Eq ("select", Value.Int 1L)));
  check_str "printer quotes TRUE (it opens an atom)" "\"true\" = 1"
    (Sql.print_predicate (Predicate.Eq ("true", Value.Int 1L)));
  check_str "plain idents stay bare, '' escape used" "name = 'O''Brien'"
    (Sql.print_predicate (Predicate.Eq ("name", Value.Text "O'Brien")))

let test_number_lexing_exponent () =
  check_bool "e+ exponent" true
    (parse_pred "score = 1e+3" = Predicate.Eq ("score", Value.Real 1000.0));
  check_bool "e- exponent" true
    (parse_pred "score = 25e-2" = Predicate.Eq ("score", Value.Real 0.25));
  (* large magnitudes print with e+NN and must survive the round trip *)
  check_bool "printed float reparses" true
    (parse_pred (Sql.print_predicate (Predicate.Eq ("score", Value.Real 1e300)))
    = Predicate.Eq ("score", Value.Real 1e300));
  check_bool "integral float keeps REAL type" true
    (parse_pred (Sql.print_predicate (Predicate.Eq ("score", Value.Real 42.0)))
    = Predicate.Eq ("score", Value.Real 42.0))

(* Generators for the print → re-parse property. Identifiers include
   keywords, embedded quotes, spaces and leading digits (everything the
   printer must "…"-quote); TEXT values include the '' escape. *)
let gen_ident =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "id"; "name"; "city"; "age"; "col_9"; "_tmp"; "x" ];
        oneofl [ "select"; "WHERE"; "true"; "NULL"; "in"; "between" ];
        oneofl [ "weird name"; "quo\"te"; "9lives"; "semi;colon"; "paren)"; "a'b" ];
      ])

let gen_text =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:printable (int_range 0 12); oneofl [ "O'Brien"; "''"; "'"; "a\nb" ] ])

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int (Int64.of_int i)) int);
        (1, oneofl [ Value.Int Int64.min_int; Value.Int Int64.max_int; Value.Null ]);
        (2, map (fun f -> Value.Real (if Float.is_finite f then f else 0.5)) float);
        (1, oneofl [ Value.Real 1e300; Value.Real (-0.0); Value.Real 2.5e-7 ]);
        (3, map (fun s -> Value.Text s) gen_text);
        (1, map (fun s -> Value.Blob s) (string_size ~gen:char (int_range 0 8)));
      ])

(* Canonical shapes only: the parser folds nested same-connective
   chains flat (even parenthesized tails), so And legs are never And
   and Or legs never Or — exactly the ASTs the parser itself emits. *)
let gen_predicate_with gen_col =
  let open QCheck.Gen in
  let gen_atom =
    frequency
      [
        (1, return Predicate.True);
        (4, map2 (fun c v -> Predicate.Eq (c, v)) gen_col gen_value);
        (2, map2 (fun c vs -> Predicate.In (c, vs)) gen_col (list_size (int_range 1 4) gen_value));
        ( 2,
          map3
            (fun c v shape ->
              match shape with
              | 0 -> Predicate.Range (c, Some v, None)
              | 1 -> Predicate.Range (c, None, Some v)
              | _ -> Predicate.Range (c, Some v, Some v))
            gen_col gen_value (int_range 0 2) );
      ]
  in
  let rec gen depth parent =
    if depth = 0 then gen_atom
    else
      let gen_and () =
        map (fun legs -> Predicate.And legs) (list_size (int_range 2 3) (gen (depth - 1) `And))
      in
      let gen_or () =
        map (fun legs -> Predicate.Or legs) (list_size (int_range 2 3) (gen (depth - 1) `Or))
      in
      let gen_not () = map (fun q -> Predicate.Not q) (gen (depth - 1) `Top) in
      match parent with
      | `And -> frequency [ (3, gen_atom); (1, gen_or ()); (1, gen_not ()) ]
      | `Or -> frequency [ (3, gen_atom); (1, gen_and ()); (1, gen_not ()) ]
      | `Top -> frequency [ (3, gen_atom); (1, gen_and ()); (1, gen_or ()); (1, gen_not ()) ]
  in
  gen 3 `Top

let gen_predicate = gen_predicate_with gen_ident

let gen_statement =
  let open QCheck.Gen in
  let gen_select =
    map2
      (fun (projection, table) (where, limit) -> Sql.Select { projection; table; where; limit })
      (pair
         (oneof
            [ return `Star; map (fun cs -> `Columns cs) (list_size (int_range 1 3) gen_ident) ])
         gen_ident)
      (pair gen_predicate (opt (int_range 0 50)))
  in
  let gen_insert =
    map2
      (fun table values -> Sql.Insert { table; values })
      gen_ident
      (list_size (int_range 1 4) gen_value)
  in
  let gen_create =
    let gen_column =
      map3
        (fun name ty nullable -> { Schema.name; ty; nullable })
        gen_ident
        (oneofl [ Value.TInt; Value.TReal; Value.TText; Value.TBlob ])
        bool
    in
    map2
      (fun table columns -> Sql.Create_table { table; columns })
      gen_ident
      (list_size (int_range 1 3) gen_column)
  in
  let gen_delete =
    map2 (fun table where -> Sql.Delete { table; where }) gen_ident gen_predicate
  in
  let gen_update =
    map3
      (fun table assignments where -> Sql.Update { table; assignments; where })
      gen_ident
      (list_size (int_range 1 3) (pair gen_ident gen_value))
      gen_predicate
  in
  frequency [ (3, gen_select); (2, gen_insert); (1, gen_create); (1, gen_delete); (2, gen_update) ]

(* Join statements, respecting the invariants the parser itself
   establishes: distinct table names, ON references qualified by left
   resp. right, projection/WHERE columns qualified by one of the two.
   Table names include keywords, spaces and embedded dots (the printer
   must re-quote them and split WHERE columns on the longest table-name
   prefix). *)
let gen_join_statement =
  let open QCheck.Gen in
  let tables = [ "a"; "people"; "select"; "a.b"; "weird name" ] in
  let table_pairs =
    List.concat_map
      (fun l -> List.filter_map (fun r -> if l = r then None else Some (l, r)) tables)
      tables
  in
  oneofl table_pairs >>= fun (l, r) ->
  let qref t = map (fun c -> { Sql.q_table = t; q_column = c }) gen_ident in
  let qcol = map2 (fun pick c -> (if pick then l else r) ^ "." ^ c) bool gen_ident in
  let gen_proj =
    oneof
      [
        return `Star;
        map (fun cs -> `Columns cs) (list_size (int_range 1 3) (oneof [ qref l; qref r ]));
      ]
  in
  map2
    (fun ((proj, ol), orr) (where, limit) ->
      Sql.Select_join
        {
          j_projection = proj;
          j_left = l;
          j_right = r;
          j_on_left = ol;
          j_on_right = orr;
          j_where = where;
          j_limit = limit;
        })
    (pair (pair gen_proj (qref l)) (qref r))
    (pair (gen_predicate_with qcol) (opt (int_range 0 50)))

let qcheck_join_roundtrip =
  QCheck.Test.make ~name:"join print → re-parse round-trip" ~count:300
    (QCheck.make ~print:Sql.print_statement gen_join_statement) (fun st ->
      Sql.parse (Sql.print_statement st) = Ok st)

let qcheck_predicate_roundtrip =
  QCheck.Test.make ~name:"predicate print → re-parse round-trip" ~count:500
    (QCheck.make ~print:Sql.print_predicate gen_predicate) (fun p ->
      Sql.parse_predicate (Sql.print_predicate p) = Ok p)

let qcheck_statement_roundtrip =
  QCheck.Test.make ~name:"statement print → re-parse round-trip" ~count:300
    (QCheck.make ~print:Sql.print_statement gen_statement) (fun st ->
      Sql.parse (Sql.print_statement st) = Ok st)

(* ---------------- Property: proxy vs plaintext reference ---------------- *)

let qcheck_proxy_matches_plaintext =
  (* Random WHERE clauses executed through the rewriting proxy against
     the encrypted table must return exactly the rows a plaintext
     database returns. *)
  let where_gen =
    let open QCheck.Gen in
    let name_atom = map (Printf.sprintf "name = '%s'") (oneofl [ "ann"; "bob"; "cat"; "zoe" ]) in
    let city_atom = map (Printf.sprintf "city = '%s'") (oneofl [ "pdx"; "sea"; "nyc" ]) in
    let id_atom =
      map2
        (fun a b -> Printf.sprintf "id BETWEEN %d AND %d" (min a b) (max a b))
        (int_bound 70) (int_bound 70)
    in
    let age_atom = map (Printf.sprintf "age >= %d") (int_bound 60) in
    let atom = oneof [ name_atom; city_atom; id_atom; age_atom ] in
    let join op a b = Printf.sprintf "(%s) %s (%s)" a op b in
    oneof
      [ atom; map2 (join "AND") atom atom; map2 (join "OR") atom atom;
        map (Printf.sprintf "NOT (%s)") atom ]
  in
  let reference =
    lazy
      (let db = Database.create () in
       let t = Database.create_table db ~name:"people" ~schema:plain_schema in
       List.iter (fun r -> ignore (Table.insert t r)) people;
       t)
  in
  let proxy = lazy (make_proxy (Wre.Scheme.Bucketized 60.0)) in
  let ids_of rows =
    List.sort compare
      (List.map (fun row -> match row.(0) with Value.Int i -> i | _ -> -1L) rows)
  in
  QCheck.Test.make ~name:"proxy matches plaintext reference" ~count:60 (QCheck.make where_gen)
    (fun where ->
      match Sql.parse_predicate where with
      | Error _ -> false
      | Ok p ->
          let t = Lazy.force reference in
          let ref_rows =
            Array.to_list (Executor.run_view (Table.freeze t) ~projection:Executor.All_columns p).rows
          in
          let sql = "SELECT id FROM people WHERE " ^ where in
          let proxy_ids =
            match Wre.Proxy.execute (Lazy.force proxy) sql with
            | Error _ -> []
            | Ok r -> ids_of r.rows
          in
          proxy_ids = ids_of ref_rows)

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "strict comparisons" `Quick test_parse_strict_comparisons;
          Alcotest.test_case "boolean structure" `Quick test_parse_boolean_structure;
          Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
          Alcotest.test_case "select shapes" `Quick test_parse_select_shapes;
          Alcotest.test_case "insert/create" `Quick test_parse_insert_create;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "quoted identifiers" `Quick test_quoted_identifiers;
          Alcotest.test_case "exponent literals" `Quick test_number_lexing_exponent;
          Alcotest.test_case "join shapes" `Quick test_parse_join_shapes;
          Alcotest.test_case "join errors" `Quick test_parse_join_errors;
        ] );
      ( "execute",
        [
          Alcotest.test_case "select" `Quick test_execute_select;
          Alcotest.test_case "errors" `Quick test_execute_errors;
          Alcotest.test_case "plain join" `Quick test_execute_plain_join;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "encrypted equality" `Quick test_proxy_select_encrypted_eq;
          Alcotest.test_case "multi-column AND" `Quick test_proxy_multi_column_and;
          Alcotest.test_case "residual filter" `Quick test_proxy_residual_filter;
          Alcotest.test_case "key passthrough" `Quick test_proxy_key_passthrough;
          Alcotest.test_case "rewrite shape" `Quick test_proxy_rewrite_shape;
          Alcotest.test_case "insert then search" `Quick test_proxy_insert_and_search;
          Alcotest.test_case "unknown plaintext insert" `Quick test_proxy_unknown_plaintext_insert;
          Alcotest.test_case "unknown table" `Quick test_proxy_unknown_table;
          Alcotest.test_case "or across encrypted columns" `Quick
            test_proxy_or_across_encrypted_columns;
          Alcotest.test_case "or fallback full scan" `Quick test_proxy_or_fallback_full_scan;
          Alcotest.test_case "not on encrypted column" `Quick test_proxy_not_on_encrypted_column;
          Alcotest.test_case "limit after fp filter" `Quick test_proxy_limit_after_fp_filter;
          Alcotest.test_case "bucketized fp filtered" `Quick test_proxy_bucketized_fp_filtered;
          Alcotest.test_case "delete respects FPs" `Quick test_proxy_delete_respects_false_positives;
          Alcotest.test_case "update re-encrypts" `Quick test_proxy_update_reencrypts;
          Alcotest.test_case "update outside distribution" `Quick
            test_proxy_update_outside_distribution;
          Alcotest.test_case "update atomic on failure" `Quick test_proxy_update_atomic;
          Alcotest.test_case "limit decrypts lazily" `Quick test_proxy_limit_decrypts_lazily;
          Alcotest.test_case "decrypts only read columns" `Quick
            test_proxy_decrypts_only_read_columns;
          Alcotest.test_case "fetches only read cells" `Quick test_proxy_fetches_only_read_cells;
          Alcotest.test_case "explain matches run" `Quick test_proxy_explain_matches_run;
          Alcotest.test_case "counts edge-bucket FPs" `Quick test_proxy_counts_edge_fps;
          Alcotest.test_case "IN-list on encrypted column" `Quick
            test_proxy_in_list_on_encrypted_column;
          Alcotest.test_case "join matches plaintext" `Quick test_proxy_join_matches_plaintext;
          Alcotest.test_case "join decrypts ON columns" `Quick test_proxy_join_decrypts_on_columns;
          Alcotest.test_case "join fetches read columns" `Quick test_proxy_join_fetches_read_columns;
          Alcotest.test_case "join residual where + limit" `Quick
            test_proxy_join_residual_where_and_limit;
          Alcotest.test_case "join bucketized verifies FPs" `Quick
            test_proxy_join_bucketized_verifies_fps;
          Alcotest.test_case "join errors" `Quick test_proxy_join_errors;
          Alcotest.test_case "join rewrite buckets" `Quick test_proxy_rewrite_join_buckets;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_proxy_matches_plaintext;
            qcheck_predicate_roundtrip;
            qcheck_statement_roundtrip;
            qcheck_join_roundtrip;
          ] );
    ]
