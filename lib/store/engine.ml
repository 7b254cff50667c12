open Sqldb

let m_replayed = Obs.Metrics.counter "store.wal_replayed_total"
let m_checkpoints = Obs.Metrics.counter "store.checkpoints_total"
let m_recoveries = Obs.Metrics.counter "store.recoveries_total"
let h_recovery = Obs.Metrics.histogram "store.recovery_ns"

type recovery = { snapshot_loaded : bool; replayed : int; duration_ns : float }

type t = {
  dir : string;
  db : Database.t;
  wal : Wal.t;
  mutable recovery : recovery;
  mutable edbs : (string * Wre.Encrypted_db.t) list;  (* by table name *)
  mutable wre_configs : (string * Record.wre_config) list;
}

let db t = t.db
let dir t = t.dir
let recovery t = t.recovery
let encrypted t name = List.assoc_opt name t.edbs
let encrypted_names t = List.map fst t.edbs

let dist_table counts_alist =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (c, counts) -> Hashtbl.replace tbl c (Dist.Empirical.of_counts counts)) counts_alist;
  fun c ->
    match Hashtbl.find_opt tbl c with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Store: no checkpointed distribution for column %S" c)

(* Rebuild an Encrypted_db.t from its logged client-side state; the
   physical table must already exist (snapshot restore or replayed
   Create_table/Create_index records). *)
let attach_wre ~db (cfg : Record.wre_config) =
  let master = Crypto.Keys.of_raw ~k0:cfg.k0 ~k1:cfg.k1 in
  Wre.Encrypted_db.attach ~fallback:cfg.fallback ~tag_algo:cfg.tag_algo
    ~range_boundaries:cfg.ranges
    ~table:(Database.table db cfg.table_name)
    ~plain_schema:cfg.plain_schema ~key_column:cfg.key_column
    ~encrypted_columns:cfg.encrypted_columns ~kind:cfg.kind ~master
    ~dist_of:(dist_table cfg.dists)
    ~prng:(Stdx.Prng.import cfg.prng) ()

let restore_prng edbs table = function
  | None -> ()
  | Some state -> (
      match List.assoc_opt table edbs with
      | Some edb -> Stdx.Prng.restore (Wre.Encrypted_db.prng edb) state
      | None -> ())

(* Replay one logged op against the in-memory state. No journal hook is
   installed yet, so nothing is re-logged. *)
let apply_op st op =
  let db, edbs = st in
  match (op : Record.op) with
  | Create_table { name; schema } -> ignore (Database.create_table db ~name ~schema)
  | Create_index { table; column } -> ignore (Table.create_index (Database.table db table) ~column)
  | Apply { table; deleted; rows; prng } ->
      ignore (Table.apply (Database.table db table) ~delete:deleted ~insert:rows : int * int);
      restore_prng !edbs table prng
  | Vacuum { table } -> Table.vacuum (Database.table db table)
  | Attach_wre cfg ->
      edbs := (cfg.table_name, attach_wre ~db cfg) :: !edbs

let checkpoint t =
  Wal.sync t.wal;
  (* Freeze every table's current epoch up front — a brief writer-lock
     per table — then serialize the frozen views with no lock held:
     readers keep their views and writers publish new epochs while the
     snapshot file is being written. *)
  let views = List.map Table.freeze (Database.tables t.db) in
  let wre =
    List.map
      (fun (name, cfg) ->
        match List.assoc_opt name t.edbs with
        | Some edb ->
            { cfg with Record.prng = Stdx.Prng.export (Wre.Encrypted_db.prng edb) }
        | None -> cfg)
      t.wre_configs
  in
  Snapshot.write_views ~dir:t.dir ~last_lsn:(Int64.pred (Wal.next_lsn t.wal)) ~views ~wre;
  Wal.reset t.wal;
  Obs.Metrics.incr m_checkpoints

(* The journal hook: map the in-memory mutation to one WAL record and
   append it. A statement that inserted rows into an encrypted table
   also captures the post-statement PRNG state, so replay resumes the
   exact stream. *)
let log_mutation t (m : Journal.mutation) =
  let op =
    match m with
    | Journal.Created_table { name; schema } -> Record.Create_table { name; schema }
    | Journal.Created_index { table; column } -> Record.Create_index { table; column }
    | Journal.Applied { table; deleted; inserted } ->
        let prng =
          if Array.length inserted = 0 then None
          else
            Option.map
              (fun edb -> Stdx.Prng.export (Wre.Encrypted_db.prng edb))
              (List.assoc_opt table t.edbs)
        in
        Record.Apply { table; deleted; rows = inserted; prng }
    | Journal.Vacuumed { table } -> Record.Vacuum { table }
  in
  ignore (Wal.append t.wal (Record.encode op))

let open_dir ?(group_commit = 1) ~dir () =
  let result, duration_ns =
    Stdx.Clock.time_it @@ fun () ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let snap = Snapshot.load ~dir in
    let db = Database.create () in
    let edbs = ref [] in
    let configs = ref [] in
    let last_lsn =
      match snap with
      | None -> 0L
      | Some s ->
          List.iter (fun ts -> ignore (Database.restore_table db ts)) s.tables;
          List.iter
            (fun (cfg : Record.wre_config) ->
              edbs := (cfg.table_name, attach_wre ~db cfg) :: !edbs;
              configs := (cfg.table_name, cfg) :: !configs)
            s.wre;
          s.last_lsn
    in
    let replayed = ref 0 in
    let wal_path = Snapshot.wal_path ~dir in
    let max_lsn, valid_len =
      Wal.replay_in_place ~path:wal_path (fun lsn data ~off ~len ->
          if Int64.compare lsn last_lsn > 0 then begin
            let op = Record.decode ~off ~len data in
            apply_op (db, edbs) op;
            (match op with
            | Record.Attach_wre cfg -> configs := (cfg.table_name, cfg) :: !configs
            | _ -> ());
            incr replayed;
            Obs.Metrics.incr m_replayed
          end)
    in
    let wal =
      Wal.create ~path:wal_path ~group_commit
        ~next_lsn:(Int64.succ (if Int64.compare max_lsn last_lsn > 0 then max_lsn else last_lsn))
    in
    (* Trim the torn tail a crash may have left; a log made fully
       redundant by the snapshot resets to empty. *)
    if !replayed = 0 && Wal.size wal > 0 then Wal.reset wal
    else if Wal.size wal > valid_len then Wal.truncate_to wal valid_len;
    let t =
      {
        dir;
        db;
        wal;
        recovery =
          { snapshot_loaded = Option.is_some snap; replayed = !replayed; duration_ns = 0.0 };
        edbs = !edbs;
        wre_configs = !configs;
      }
    in
    Database.set_journal db (Some (log_mutation t));
    t
  in
  Obs.Metrics.incr m_recoveries;
  Obs.Metrics.observe h_recovery duration_ns;
  result.recovery <- { result.recovery with duration_ns };
  result

let create_encrypted ?(fallback = `Reject) ?tag_algo ?range_columns ?range_training t ~name
    ~plain_schema ~key_column ~encrypted_columns ~kind ~master ~dist_of ~seed () =
  let edb =
    Wre.Encrypted_db.create ~fallback ?tag_algo ?range_columns ?range_training ~db:t.db ~name
      ~plain_schema ~key_column ~encrypted_columns ~kind ~master ~dist_of ~seed ()
  in
  let k0, k1 = Crypto.Keys.export master in
  let cfg =
    {
      Record.table_name = name;
      kind;
      fallback;
      tag_algo = Option.value ~default:Crypto.Prf.Hmac_sha256 tag_algo;
      k0;
      k1;
      plain_schema;
      key_column;
      encrypted_columns;
      dists =
        List.map
          (fun c ->
            (c, Dist.Empirical.to_counts (Wre.Column_enc.dist (Wre.Encrypted_db.column_encryptor edb c))))
          encrypted_columns;
      ranges =
        List.map
          (fun c -> (c, Wre.Range_index.boundaries (Wre.Encrypted_db.range_index edb c)))
          (Wre.Encrypted_db.range_columns edb);
      prng = Stdx.Prng.export (Wre.Encrypted_db.prng edb);
    }
  in
  ignore (Wal.append t.wal (Record.encode (Record.Attach_wre cfg)));
  t.edbs <- (name, edb) :: t.edbs;
  t.wre_configs <- (name, cfg) :: t.wre_configs;
  edb

let flush t = Wal.sync t.wal

let close t =
  Database.set_journal t.db None;
  Wal.sync t.wal;
  Wal.close t.wal
