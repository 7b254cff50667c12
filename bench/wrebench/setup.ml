(* Set-up: everything a deployment pays before its first statement.
   Profile the plaintext columns, open a durable store, create the
   encrypted tables, bulk-load them, checkpoint, close — all through the
   public library calls — then start wre_server on the directory and
   wait for its Welcome. *)

type t = {
  dir : string;
  socket : string;
  pid : int;
  setup_s : float;
  ingest_rows_per_s : float;
  checkpoint_s : float;
  snapshot_bytes : int;
  disk_bytes : int;  (** snapshot.bin + wal.bin once set-up is done *)
}

let build_store (inp : Inputs.t) ~dir =
  let profiles =
    List.map
      (fun (tb : Inputs.table) ->
        Wre.Dist_est.of_rows ~schema:tb.schema ~columns:tb.enc_columns (Array.to_seq tb.profile))
      inp.tables
  in
  let store = Store.Engine.open_dir ~dir () in
  Fun.protect ~finally:(fun () -> Store.Engine.close store) @@ fun () ->
  let master = Crypto.Keys.generate (Stdx.Prng.create (Int64.of_int inp.seed)) in
  let ingest_ns =
    List.fold_left2
      (fun acc (tb : Inputs.table) dist_of ->
        let range_columns, range_training =
          match tb.range with
          | [] -> (None, None)
          | cols ->
              (Some cols, Some (fun col -> Array.map (Inputs.int_column tb.schema col) tb.profile))
        in
        let edb =
          Store.Engine.create_encrypted store ?range_columns ?range_training ~name:tb.tname
            ~plain_schema:tb.schema ~key_column:"id" ~encrypted_columns:tb.enc_columns
            ~kind:inp.scheme ~master ~dist_of
            ~seed:(Int64.of_int (Hashtbl.hash (inp.seed, tb.tname)))
            ()
        in
        let _, ns = Stdx.Clock.time_it (fun () -> Wre.Encrypted_db.insert_batch edb tb.load) in
        acc +. ns)
      0.0 inp.tables profiles
  in
  let (), checkpoint_ns = Stdx.Clock.time_it (fun () -> Store.Engine.checkpoint store) in
  (ingest_ns, checkpoint_ns)

(* One full set-up in [dir]; the server is left running. *)
let run (inp : Inputs.t) ~exe ~dir ~socket =
  let t0 = Stdx.Clock.now_ns () in
  let ingest_ns, checkpoint_ns = build_store inp ~dir in
  let snapshot_bytes = Proc.file_bytes (Filename.concat dir "snapshot.bin") in
  let disk_bytes = snapshot_bytes + Proc.file_bytes (Filename.concat dir "wal.bin") in
  let pid = Proc.start_server ~exe ~dir ~socket in
  {
    dir;
    socket;
    pid;
    setup_s = (Stdx.Clock.now_ns () -. t0) /. 1e9;
    ingest_rows_per_s = float_of_int (Inputs.rows_loaded inp) /. (ingest_ns /. 1e9);
    checkpoint_s = checkpoint_ns /. 1e9;
    snapshot_bytes;
    disk_bytes;
  }

(* Set up [reps] times from scratch and keep the last store and server
   running; the earlier ones only contribute their set-up time. *)
let repeated (inp : Inputs.t) ~exe ~scratch ~reps =
  let rec go i acc =
    let dir = Filename.concat scratch (Printf.sprintf "store%d" i) in
    let s = run inp ~exe ~dir ~socket:(Filename.concat scratch (Printf.sprintf "s%d.sock" i)) in
    if i + 1 >= reps then (s, List.rev (s.setup_s :: acc))
    else begin
      Proc.stop s.pid Sys.sigterm;
      Proc.rm_rf dir;
      go (i + 1) (s.setup_s :: acc)
    end
  in
  go 0 []
