(* Concurrency stress harness for the snapshot-read query path.

   N reader domains serve snapshot queries through the proxy while the
   main domain — the single writer — interleaves INSERT / UPDATE /
   DELETE / vacuum / engine checkpoints. Readers check, every
   iteration:

   - monotone epochs: successive freezes never go backwards;
   - stable views: re-running a query against the same frozen view
     returns identical rows even while the writer publishes new epochs;
   - no torn rows: every decrypted row has the searched name, a
     non-negative id, and an in-universe city (a half-applied update or
     a row torn across an epoch would break one of these);
   - no resurrected tombstones: ids the writer had tombstoned before
     the freeze (published via an atomic watermark) never reappear;
   - consistent cardinality: the per-name searches partition the view,
     so their counts must sum to the view's total row count, and that
     total must lie inside the bounds implied by the writer's monotone
     insert/delete counters read before and after the freeze.

   Knobs: WRE_SEED, WRE_DOMAINS (reader-domain counts, comma list,
   default "2"), WRE_STRESS_OPS (writer mutations, default 250). *)

let check_bool = Alcotest.(check bool)

(* scratch directories (same convention as test_store) *)

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wre_conc_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* fixtures *)

let plain_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = Sqldb.Value.TInt; nullable = false };
      { name = "name"; ty = Sqldb.Value.TText; nullable = false };
      { name = "city"; ty = Sqldb.Value.TText; nullable = false };
    ]

let names = [| "ann"; "bob"; "cat"; "dan"; "eve" |]
let cities = [| "pdx"; "sea"; "nyc" |]

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with Some v -> v | None -> default

let master_seed =
  match Option.bind (Sys.getenv_opt "WRE_SEED") Int64.of_string_opt with
  | Some s -> s
  | None -> 7L

let reader_configs =
  match Sys.getenv_opt "WRE_DOMAINS" with
  | Some s -> (
      match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
      | [] -> [ 2 ]
      | ds -> ds)
  | None -> [ 2 ]

let writer_ops = env_int "WRE_STRESS_OPS" 250
let initial_rows = 60

(* Insert/delete progress is tracked with started/done counter pairs:
   the writer bumps [started] before applying an op and [done] after,
   so a reader can bound what any freeze in between may see. A single
   post-op counter is not enough — a freeze can land after the op
   applied but before its bump, and the view would look "too big". *)
type shared = {
  proxy : Wre.Proxy.t;
  edb : Wre.Encrypted_db.t;
  i_started : int Atomic.t;  (** inserts begun (initial load + INSERTs + UPDATE re-inserts) *)
  i_done : int Atomic.t;  (** inserts known applied *)
  d_started : int Atomic.t;  (** tombstones begun (DELETEs + UPDATE tombstones) *)
  d_done : int Atomic.t;  (** tombstones known applied *)
  watermark : int Atomic.t;  (** every id < watermark is tombstoned for good *)
  stop : bool Atomic.t;
}

let row_of prng i =
  [|
    Sqldb.Value.Int (Int64.of_int i);
    Sqldb.Value.Text names.(Stdx.Prng.int prng (Array.length names));
    Sqldb.Value.Text cities.(Stdx.Prng.int prng (Array.length cities));
  |]

let build ~dir ~seed =
  let prng = Stdx.Prng.create seed in
  let rows = List.init initial_rows (row_of prng) in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq rows)
  in
  let store = Store.Engine.open_dir ~dir () in
  let edb =
    Store.Engine.create_encrypted store ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ]
      ~kind:(Wre.Scheme.Poisson 40.0)
      ~master:(Crypto.Keys.generate (Stdx.Prng.create (Int64.logxor seed 0xc0ffeeL)))
      ~dist_of ~seed:(Int64.logxor seed 0x5eedL) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
  let shared =
    {
      proxy = Wre.Proxy.create edb;
      edb;
      i_started = Atomic.make initial_rows;
      i_done = Atomic.make initial_rows;
      d_started = Atomic.make 0;
      d_done = Atomic.make 0;
      watermark = Atomic.make 0;
      stop = Atomic.make false;
    }
  in
  (store, shared, prng)

(* ---------------- reader ---------------- *)

(* One reader domain: loop freezes + snapshot queries until the writer
   raises [stop], accumulating invariant violations (empty = pass). *)
let reader shared =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let last_epoch = ref (-1) in
  let iterations = ref 0 in
  while (not (Atomic.get shared.stop)) && List.length !errors < 5 do
    incr iterations;
    let i1 = Atomic.get shared.i_done and d1 = Atomic.get shared.d_done in
    let w = Atomic.get shared.watermark in
    let view = Wre.Encrypted_db.freeze shared.edb in
    let epoch = Sqldb.Read_view.epoch view in
    if epoch < !last_epoch then fail "epoch went backwards: %d after %d" epoch !last_epoch;
    last_epoch := max !last_epoch epoch;
    let ids sql =
      match Wre.Proxy.execute_snapshot ~view shared.proxy sql with
      | Error e ->
          fail "query %S failed: %s" sql e;
          []
      | Ok r ->
          List.map
            (fun row ->
              match row.(0) with Sqldb.Value.Int i -> Int64.to_int i | _ -> min_int)
            r.Wre.Proxy.rows
    in
    let total = ids "SELECT id FROM people" in
    (* stability: the same frozen view answers identically later, no
       matter how many epochs the writer has published since *)
    let again = ids "SELECT id FROM people" in
    if total <> again then
      fail "same view answered differently: %d then %d rows (epoch %d)" (List.length total)
        (List.length again) epoch;
    (* no resurrected tombstones *)
    List.iter
      (fun id -> if id < w then fail "tombstoned id %d reappeared (epoch %d)" id epoch)
      total;
    (* per-name searches partition the view: counts must sum to the
       total, and decrypted rows must be internally consistent *)
    let by_name =
      Array.fold_left
        (fun acc name ->
          let sql = Printf.sprintf "SELECT * FROM people WHERE name = '%s'" name in
          match Wre.Proxy.execute_snapshot ~view shared.proxy sql with
          | Error e ->
              fail "query %S failed: %s" sql e;
              acc
          | Ok r ->
              List.iter
                (fun row ->
                  (match row.(1) with
                  | Sqldb.Value.Text n when n = name -> ()
                  | _ -> fail "torn row under name = '%s' (epoch %d)" name epoch);
                  (match row.(0) with
                  | Sqldb.Value.Int i when i >= 0L -> ()
                  | _ -> fail "bad id under name = '%s' (epoch %d)" name epoch);
                  match row.(2) with
                  | Sqldb.Value.Text c when Array.exists (String.equal c) cities -> ()
                  | _ -> fail "bad city under name = '%s' (epoch %d)" name epoch)
                r.Wre.Proxy.rows;
              acc + List.length r.Wre.Proxy.rows)
        0 names
    in
    if by_name <> List.length total then
      fail "per-name counts sum to %d but the view holds %d rows (epoch %d)" by_name
        (List.length total) epoch;
    (* cardinality bounded by the writer's monotone counters: the view
       holds at least every insert finished before the freeze minus
       every delete ever started by now, and at most every insert
       started by now minus every delete finished before the freeze *)
    let i2 = Atomic.get shared.i_started and d2 = Atomic.get shared.d_started in
    let n = List.length total in
    if n < i1 - d2 || n > i2 - d1 then
      fail "view row count %d outside [%d, %d] (epoch %d)" n (i1 - d2) (i2 - d1) epoch
  done;
  (!iterations, List.rev !errors)

(* ---------------- writer ---------------- *)

let writer store shared prng =
  let next_id = ref initial_rows in
  for op = 1 to writer_ops do
    (match Stdx.Prng.int prng 10 with
    | 0 | 1 | 2 | 3 -> (
        (* INSERT a fresh id *)
        let id = !next_id in
        incr next_id;
        let sql =
          Printf.sprintf "INSERT INTO people VALUES (%d, '%s', '%s')" id
            names.(Stdx.Prng.int prng (Array.length names))
            cities.(Stdx.Prng.int prng (Array.length cities))
        in
        Atomic.incr shared.i_started;
        match Wre.Proxy.execute shared.proxy sql with
        | Ok r ->
            check_bool "insert applied" true (r.Wre.Proxy.affected = 1);
            Atomic.incr shared.i_done
        | Error e -> Alcotest.fail ("writer INSERT failed: " ^ e))
    | 4 | 5 | 6 -> (
        (* UPDATE one live row's city (MVCC: tombstone + re-insert) *)
        let lo = Atomic.get shared.watermark in
        let id = lo + Stdx.Prng.int prng (max 1 (!next_id - lo)) in
        let sql =
          Printf.sprintf "UPDATE people SET city = '%s' WHERE id = %d"
            cities.(Stdx.Prng.int prng (Array.length cities))
            id
        in
        (* an UPDATE that matches is a tombstone + re-insert; start
           both sides before executing (a no-match update leaves the
           started counters ahead, which only loosens the bounds) *)
        Atomic.incr shared.i_started;
        Atomic.incr shared.d_started;
        match Wre.Proxy.execute shared.proxy sql with
        | Ok r ->
            if r.Wre.Proxy.affected > 0 then begin
              Atomic.incr shared.i_done;
              Atomic.incr shared.d_done
            end
        | Error e -> Alcotest.fail ("writer UPDATE failed: " ^ e))
    | 7 | 8 -> (
        (* DELETE the watermark id: tombstoned for good, never reused *)
        let w = Atomic.get shared.watermark in
        if w < !next_id then begin
          let sql = Printf.sprintf "DELETE FROM people WHERE id = %d" w in
          Atomic.incr shared.d_started;
          match Wre.Proxy.execute shared.proxy sql with
          | Ok r ->
              check_bool "watermark id was live" true (r.Wre.Proxy.affected = 1);
              Atomic.incr shared.d_done;
              (* publish only after the tombstone is applied *)
              Atomic.set shared.watermark (w + 1)
          | Error e -> Alcotest.fail ("writer DELETE failed: " ^ e)
        end)
    | _ ->
        (* vacuum: compacts the heap and rebuilds indexes; frozen views
           keep serving their own row copies *)
        Sqldb.Table.vacuum (Wre.Encrypted_db.table shared.edb));
    if op mod 25 = 0 then Store.Engine.checkpoint store
  done

(* ---------------- cases ---------------- *)

let stress_case readers () =
  with_temp_dir @@ fun dir ->
  let store, shared, prng = build ~dir ~seed:master_seed in
  let domains = List.init readers (fun _ -> Domain.spawn (fun () -> reader shared)) in
  let writer_result =
    match writer store shared prng with
    | () -> Ok ()
    | exception e ->
        Atomic.set shared.stop true;
        Error e
  in
  Atomic.set shared.stop true;
  let results = List.map Domain.join domains in
  Store.Engine.close store;
  (match writer_result with Ok () -> () | Error e -> raise e);
  List.iteri
    (fun i (iterations, errors) ->
      check_bool (Printf.sprintf "reader %d made progress" i) true (iterations > 0);
      match errors with
      | [] -> ()
      | e :: _ ->
          Alcotest.fail
            (Printf.sprintf "reader %d: %d violation(s), first: %s" i (List.length errors) e))
    results

(* Readers still holding a pre-checkpoint epoch keep answering from it
   after the checkpoint truncates the WAL and vacuum rewrites the heap:
   frozen views own their row pointers. *)
let old_epoch_survives_checkpoint () =
  with_temp_dir @@ fun dir ->
  let store, shared, _prng = build ~dir ~seed:master_seed in
  let view = Wre.Encrypted_db.freeze shared.edb in
  let count sql view =
    match Wre.Proxy.execute_snapshot ~view shared.proxy sql with
    | Ok r -> List.length r.Wre.Proxy.rows
    | Error e -> Alcotest.fail e
  in
  let before = count "SELECT id FROM people" view in
  (match Wre.Proxy.execute shared.proxy "DELETE FROM people WHERE id BETWEEN 0 AND 9" with
  | Ok r -> check_bool "deleted ten" true (r.Wre.Proxy.affected = 10)
  | Error e -> Alcotest.fail e);
  Store.Engine.checkpoint store;
  Sqldb.Table.vacuum (Wre.Encrypted_db.table shared.edb);
  check_bool "old view unchanged after checkpoint + vacuum" true
    (count "SELECT id FROM people" view = before);
  let fresh = Wre.Encrypted_db.freeze shared.edb in
  check_bool "new epoch sees the deletes" true
    (count "SELECT id FROM people" fresh = before - 10);
  check_bool "epochs advanced" true (Sqldb.Read_view.epoch fresh > Sqldb.Read_view.epoch view);
  Store.Engine.close store

(* A statement is one epoch: a reader freezing while the writer runs
   multi-row UPDATEs sees each one whole or not at all. Every UPDATE
   moves all the rows of one name to one city and keeps the row count,
   so every view holds exactly [initial_rows] live rows, and the rows
   of a name share one city (all old or all new). *)
let whole_statements () =
  with_temp_dir @@ fun dir ->
  let store, shared, _prng = build ~dir ~seed:master_seed in
  let exec sql =
    match Wre.Proxy.execute shared.proxy sql with
    | Ok r -> r.Wre.Proxy.affected
    | Error e -> Alcotest.fail (sql ^ ": " ^ e)
  in
  check_bool "every row moved to one city" true
    (exec (Printf.sprintf "UPDATE people SET city = '%s'" cities.(0)) = initial_rows);
  let reader () =
    let errors = ref [] and views = ref 0 in
    while (not (Atomic.get shared.stop)) && !errors = [] do
      incr views;
      let view = Wre.Encrypted_db.freeze shared.edb in
      let live = Sqldb.Read_view.live_count view in
      if live <> initial_rows then
        errors := Printf.sprintf "view holds %d live rows, not %d" live initial_rows :: !errors;
      match Wre.Proxy.execute_snapshot ~view shared.proxy "SELECT * FROM people" with
      | Error e -> errors := e :: !errors
      | Ok r ->
          let city_of = Hashtbl.create 8 in
          List.iter
            (fun row ->
              match Hashtbl.find_opt city_of row.(1) with
              | None -> Hashtbl.replace city_of row.(1) row.(2)
              | Some c when c = row.(2) -> ()
              | Some _ ->
                  errors :=
                    Printf.sprintf "rows of %s hold two cities (epoch %d)"
                      (Sqldb.Sql.print_value row.(1))
                      (Sqldb.Read_view.epoch view)
                    :: !errors)
            r.Wre.Proxy.rows
    done;
    (!views, !errors)
  in
  let readers = List.fold_left max 1 reader_configs in
  let domains = List.init readers (fun _ -> Domain.spawn reader) in
  let updates = max 1 (writer_ops / 4) in
  (match
     for i = 1 to updates do
       let name = names.(i mod Array.length names) in
       let city = cities.(i mod Array.length cities) in
       ignore (exec (Printf.sprintf "UPDATE people SET city = '%s' WHERE name = '%s'" city name))
     done
   with
  | () -> Atomic.set shared.stop true
  | exception e ->
      Atomic.set shared.stop true;
      List.iter (fun d -> ignore (Domain.join d)) domains;
      raise e);
  let results = List.map Domain.join domains in
  Store.Engine.close store;
  List.iteri
    (fun i (views, errors) ->
      check_bool (Printf.sprintf "reader %d made progress" i) true (views > 0);
      match errors with
      | [] -> ()
      | e :: _ -> Alcotest.fail (Printf.sprintf "reader %d saw half a statement: %s" i e))
    results

let () =
  Alcotest.run "concurrency"
    [
      ( "stress",
        List.map
          (fun readers ->
            Alcotest.test_case
              (Printf.sprintf "%d readers vs writer" readers)
              `Quick (stress_case readers))
          reader_configs );
      ( "epochs",
        [
          Alcotest.test_case "old epoch survives checkpoint" `Quick old_epoch_survives_checkpoint;
          Alcotest.test_case "a reader never sees half a statement" `Quick whole_statements;
        ] );
    ]
