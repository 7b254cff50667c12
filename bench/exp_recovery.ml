(* Recovery cost: reopening a durable store after a crash, with and
   without a checkpoint. The checkpointed store replays only the WAL
   tail written since the last snapshot; the never-checkpointed store
   replays its entire history. The gap is the whole argument for
   checkpointing — recovery time bounded by the tail, not the table.

   Emits BENCH_recovery.json ({"name","config","metrics"}) so later
   PRs have a recovery-latency trajectory to compare against. *)

let tail_ops = 50
let open_trials = 3

let json_obj = Bench_util.json_obj

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir label =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wre_bench_recovery_%s.%d" label (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  dir

let create_store ~dir ~dist_of =
  let store = Store.Engine.open_dir ~group_commit:1024 ~dir () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let edb =
    Store.Engine.create_encrypted store ~name:"main" ~plain_schema:Sparta.Generator.schema
      ~key_column:"id" ~encrypted_columns:Bench_util.enc_columns
      ~kind:(Wre.Scheme.Poisson 1000.0) ~master ~dist_of ~seed:2L ()
  in
  (store, edb)

(* Mean reopen wall time over [open_trials] runs, plus the recovery
   stats of the last one for sanity checks. *)
let measure_reopen dir =
  let total = ref 0.0 in
  let last = ref None in
  for _ = 1 to open_trials do
    let store = Store.Engine.open_dir ~dir () in
    let r = Store.Engine.recovery store in
    total := !total +. r.Store.Engine.duration_ns;
    last := Some r;
    Store.Engine.close store
  done;
  (!total /. float_of_int open_trials, Option.get !last)

(* How many rows the server returns for [lname = probe]. *)
let server_hits edb probe =
  Array.length
    (Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Sqldb.Executor.Row_ids
       (Wre.Encrypted_db.search_predicate edb ~column:"lname" probe))
      .row_ids

let run ~rows:n () =
  Bench_util.heading
    (Printf.sprintf "Recovery: reopen %d rows, checkpoint + %d-op tail vs full WAL replay" n
       tail_ops);
  let rows = Bench_util.generate_rows n in
  let dist_of = Bench_util.dist_of_rows rows in
  let probe = Sparta.Generator.column_string rows.(0) ~column:"lname" in
  (* Checkpointed store: bulk load, snapshot, then a short tail. *)
  let dir_ckpt = fresh_dir "ckpt" in
  let store, edb = create_store ~dir:dir_ckpt ~dist_of in
  let (), load_ns =
    Stdx.Clock.time_it (fun () -> ignore (Wre.Encrypted_db.insert_batch edb rows : int))
  in
  let (), ckpt_ns = Stdx.Clock.time_it (fun () -> Store.Engine.checkpoint store) in
  for i = 0 to tail_ops - 1 do
    ignore (Wre.Encrypted_db.insert edb rows.(i mod n))
  done;
  let expected_hits = server_hits edb probe in
  Store.Engine.close store;
  (* WAL-only store: same rows, one record per insert, never
     checkpointed — the recovery worst case. *)
  let dir_wal = fresh_dir "wal" in
  let store, edb = create_store ~dir:dir_wal ~dist_of in
  Array.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
  Store.Engine.close store;
  let ckpt_ns_mean, ckpt_rec = measure_reopen dir_ckpt in
  let wal_ns_mean, wal_rec = measure_reopen dir_wal in
  (* Sanity: the checkpointed store replays only its tail, and the
     recovered database answers queries identically. *)
  assert ckpt_rec.Store.Engine.snapshot_loaded;
  assert (ckpt_rec.Store.Engine.replayed = tail_ops);
  assert (not wal_rec.Store.Engine.snapshot_loaded);
  assert (wal_rec.Store.Engine.replayed > n);
  let store = Store.Engine.open_dir ~dir:dir_ckpt () in
  let edb = Option.get (Store.Engine.encrypted store "main") in
  assert (server_hits edb probe = expected_hits);
  assert (Sqldb.Table.row_count (Wre.Encrypted_db.table edb) = n + tail_ops);
  Store.Engine.close store;
  let t = Stdx.Table_fmt.create [ "store"; "snapshot"; "records replayed"; "reopen (ms)" ] in
  Stdx.Table_fmt.add_row t
    [
      "checkpoint + tail";
      "yes";
      string_of_int ckpt_rec.Store.Engine.replayed;
      Printf.sprintf "%.2f" (ckpt_ns_mean /. 1e6);
    ];
  Stdx.Table_fmt.add_row t
    [
      "full WAL replay";
      "no";
      string_of_int wal_rec.Store.Engine.replayed;
      Printf.sprintf "%.2f" (wal_ns_mean /. 1e6);
    ];
  Stdx.Table_fmt.print t;
  let json =
    json_obj
      [
        ("name", "\"recovery\"");
        ( "config",
          json_obj
            [
              ("rows", string_of_int n);
              ("tail_ops", string_of_int tail_ops);
              ("open_trials", string_of_int open_trials);
              ("scheme", "\"poisson-1000\"");
            ] );
        ( "metrics",
          json_obj
            [
              ("load_s", Printf.sprintf "%.3f" (load_ns /. 1e9));
              ("checkpoint_s", Printf.sprintf "%.3f" (ckpt_ns /. 1e9));
              ("ckpt_reopen_ms", Printf.sprintf "%.3f" (ckpt_ns_mean /. 1e6));
              ("ckpt_replayed", string_of_int ckpt_rec.Store.Engine.replayed);
              ("wal_reopen_ms", Printf.sprintf "%.3f" (wal_ns_mean /. 1e6));
              ("wal_replayed", string_of_int wal_rec.Store.Engine.replayed);
              ( "speedup",
                Printf.sprintf "%.2f" (wal_ns_mean /. Float.max ckpt_ns_mean 1.0) );
            ] );
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_recovery.json" json;
  Printf.printf "wrote BENCH_recovery.json (tail-bounded reopen is %.1fx faster than full replay)\n"
    (wal_ns_mean /. Float.max ckpt_ns_mean 1.0);
  rm_rf dir_ckpt;
  rm_rf dir_wal
