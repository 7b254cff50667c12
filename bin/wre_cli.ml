(* wre — command-line companion for the WRE library.

   Subcommands:
     keygen       generate a fresh (k0, k1) master key pair
     schemes      list the salt-allocation schemes and their knobs
     lambda-for   compute the Poisson rate for a security target
     demo         end-to-end encrypt/search/decrypt on sample data
     stats        run a query workload and dump the metrics registry
     attack       run the frequency-analysis attack against a scheme
     init         create a durable store directory from a CSV
     open         recover a durable store; optionally run SQL on it *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed for reproducible runs." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let scheme_arg =
  let parse s = Wre.Scheme.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf k = Format.pp_print_string ppf (Wre.Scheme.to_string k) in
  let scheme_conv = Arg.conv (parse, print) in
  let doc = "WRE scheme: det, fixed-N, proportional-N, poisson-L, bucketized-L." in
  Arg.(value & opt scheme_conv (Wre.Scheme.Poisson 1000.0) & info [ "scheme" ] ~docv:"SCHEME" ~doc)

(* ---------------- keygen ---------------- *)

let keygen seed =
  let master = Crypto.Keys.generate (Stdx.Prng.create seed) in
  let k0, k1 = Crypto.Keys.export master in
  Printf.printf "k0 = %s\nk1 = %s\n" (Stdx.Bytes_util.to_hex k0) (Stdx.Bytes_util.to_hex k1);
  Printf.printf
    "store both secrets; every per-column subkey is derived from them with HKDF.\n"

let keygen_cmd =
  let doc = "Generate a fresh (k0, k1) master key pair." in
  Cmd.v (Cmd.info "keygen" ~doc) Term.(const keygen $ seed_arg)

(* ---------------- schemes ---------------- *)

let schemes () =
  let t =
    Stdx.Table_fmt.create
      [ "scheme"; "parameter"; "tags per plaintext"; "inference resistance"; "false positives" ]
  in
  List.iter
    (fun row -> Stdx.Table_fmt.add_row t row)
    [
      [ "det"; "-"; "1"; "none (broken by frequency analysis)"; "no" ];
      [ "fixed-N"; "N salts"; "N"; "weak (counts merely diluted)"; "no" ];
      [ "proportional-N"; "N total tags"; "~ N*P(m)"; "good, except integer aliasing"; "no" ];
      [ "poisson-L"; "rate lambda"; "~ L*P(m)+1"; "advantage <= e^(-L*tau)"; "no" ];
      [ "bucketized-L"; "rate lambda"; "~ L*P(m)+1"; "IND-CUDA (Theorem V.1)"; "yes, ~1/L" ];
    ];
  Stdx.Table_fmt.print t

let schemes_cmd =
  let doc = "Describe the available salt-allocation schemes." in
  Cmd.v (Cmd.info "schemes" ~doc) Term.(const schemes $ const ())

(* ---------------- lambda-for ---------------- *)

let lambda_for omega tau =
  if omega <= 0.0 || omega >= 1.0 then `Error (false, "omega must be in (0,1)")
  else if tau <= 0.0 || tau > 1.0 then `Error (false, "tau must be in (0,1]")
  else begin
    let lambda = Dist.Exponential.lambda_for_security ~omega ~tau in
    Printf.printf
      "lambda >= %.0f  (distinguishing advantage e^(-lambda*tau) <= %g for the rarest\n\
       plaintext, frequency tau = %g). Expect ~lambda + |M| search tags per column and\n\
       ~lambda*P(m)+1 tags per query.\n"
      (Float.round lambda) omega tau;
    `Ok ()
  end

let lambda_for_cmd =
  let omega =
    Arg.(value & opt float 0.01 & info [ "omega" ] ~docv:"OMEGA" ~doc:"Security target in (0,1).")
  in
  let tau =
    Arg.(
      value
      & opt float 0.001
      & info [ "tau" ] ~docv:"TAU" ~doc:"Smallest plaintext frequency in the column.")
  in
  let doc = "Poisson rate required for a security target (paper V-C)." in
  Cmd.v (Cmd.info "lambda-for" ~doc) Term.(ret (const lambda_for $ omega $ tau))

(* ---------------- demo ---------------- *)

(* Build the demo/stats encrypted table: in memory by default, or
   backed by a durable store directory when [--dir] is given (reopening
   an existing store skips the load entirely — the point of PR 4). *)
let sparta_edb ~dir ~seed ~kind data =
  let dist_of =
    Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema
      ~columns:Sparta.Generator.encrypted_columns (Array.to_seq data)
  in
  match dir with
  | None ->
      let db = Sqldb.Database.create () in
      let master = Crypto.Keys.generate (Stdx.Prng.create seed) in
      let edb =
        Wre.Encrypted_db.create ~db ~name:"main" ~plain_schema:Sparta.Generator.schema
          ~key_column:"id" ~encrypted_columns:Sparta.Generator.encrypted_columns ~kind ~master
          ~dist_of ~seed ()
      in
      ignore (Wre.Encrypted_db.insert_batch edb data);
      Printf.printf "loaded %d census-like records under %s\n" (Array.length data)
        (Wre.Scheme.to_string kind);
      (None, edb)
  | Some dir -> (
      let store = Store.Engine.open_dir ~dir () in
      match Store.Engine.encrypted store "main" with
      | Some edb ->
          let r = Store.Engine.recovery store in
          Printf.printf
            "reopened %s: %d live rows (snapshot %s, %d WAL records replayed in %.2f ms)\n" dir
            (Sqldb.Table.live_count (Wre.Encrypted_db.table edb))
            (if r.snapshot_loaded then "loaded" else "absent")
            r.replayed (r.duration_ns /. 1e6);
          (Some store, edb)
      | None ->
          let master = Crypto.Keys.generate (Stdx.Prng.create seed) in
          let edb =
            Store.Engine.create_encrypted store ~name:"main"
              ~plain_schema:Sparta.Generator.schema ~key_column:"id"
              ~encrypted_columns:Sparta.Generator.encrypted_columns ~kind ~master ~dist_of ~seed
              ()
          in
          ignore (Wre.Encrypted_db.insert_batch edb data);
          Store.Engine.checkpoint store;
          Printf.printf "loaded %d census-like records under %s into %s (checkpointed)\n"
            (Array.length data) (Wre.Scheme.to_string kind) dir;
          (Some store, edb))

let demo seed kind rows dir =
  let gen = Sparta.Generator.create ~seed in
  let data = Array.of_seq (Sparta.Generator.rows gen ~n:rows) in
  let store, edb = sparta_edb ~dir ~seed ~kind data in
  let target = Sparta.Generator.column_string data.(0) ~column:"lname" in
  Printf.printf "searching lname = %s:\n  %s\n" target
    (Format.asprintf "%a" Sqldb.Predicate.pp
       (Wre.Encrypted_db.search_predicate edb ~column:"lname" target));
  let results, raw = Wre.Encrypted_db.search_rows edb ~column:"lname" target in
  Printf.printf "server returned %d rows, client kept %d after decryption\n"
    (Array.length raw.row_ids) (List.length results);
  List.iteri
    (fun i row ->
      if i < 5 then
        Printf.printf "  %s %s, %s (%s)\n"
          (Sparta.Generator.column_string row ~column:"fname")
          (Sparta.Generator.column_string row ~column:"lname")
          (Sparta.Generator.column_string row ~column:"city")
          (Sparta.Generator.column_string row ~column:"state"))
    results;
  Option.iter Store.Engine.close store

let opt_dir_arg =
  let doc =
    "Persist to a durable store directory (created on first run, recovered on later runs)."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let demo_cmd =
  let rows =
    Arg.(value & opt int 5000 & info [ "rows" ] ~docv:"N" ~doc:"Number of records to generate.")
  in
  let doc = "End-to-end encrypt, search and decrypt on generated census data." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo $ seed_arg $ scheme_arg $ rows $ opt_dir_arg)

(* ---------------- stats ---------------- *)

let trace_arg =
  let doc = "Enable query tracing and print the span tree to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

(* Single-quote a value for the SQL parser (doubling embedded quotes). *)
let sql_quote v =
  let buf = Buffer.create (String.length v + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      Buffer.add_char buf c;
      if c = '\'' then Buffer.add_char buf c)
    v;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let stats seed kind rows queries tracing dir =
  Obs.Trace.set_enabled tracing;
  let gen = Sparta.Generator.create ~seed in
  let data = Array.of_seq (Sparta.Generator.rows gen ~n:rows) in
  let store, edb = sparta_edb ~dir ~seed ~kind data in
  (* A representative proxy workload so every layer's instruments move:
     point lookups, a two-column AND, a server-side OR union, a lazy
     LIMIT, and one degraded full scan. *)
  let proxy = Wre.Proxy.create edb in
  let g = Stdx.Prng.create (Int64.add seed 1L) in
  let run sql =
    match Wre.Proxy.execute proxy sql with
    | Ok _ -> ()
    | Error e -> Printf.eprintf "query failed (%s): %s\n" sql e
  in
  for _ = 1 to queries do
    let row = data.(Stdx.Prng.int g (Array.length data)) in
    let lname = sql_quote (Sparta.Generator.column_string row ~column:"lname") in
    let city = sql_quote (Sparta.Generator.column_string row ~column:"city") in
    (* state is not a searchable column: this one degrades to a
       residual-only full scan and moves the full_scan counter. *)
    let state = sql_quote (Sparta.Generator.column_string row ~column:"state") in
    run (Printf.sprintf "SELECT * FROM main WHERE lname = %s" lname);
    run (Printf.sprintf "SELECT id FROM main WHERE lname = %s AND city = %s" lname city);
    run (Printf.sprintf "SELECT * FROM main WHERE lname = %s OR city = %s" lname city);
    run (Printf.sprintf "SELECT * FROM main WHERE city = %s LIMIT 3" city);
    run (Printf.sprintf "SELECT id FROM main WHERE state = %s" state)
  done;
  Printf.printf "workload: %d rows under %s, %d query rounds\n\n" rows
    (Wre.Scheme.to_string kind) queries;
  Option.iter Store.Engine.close store;
  print_string (Obs.Metrics.render ());
  if tracing then begin
    prerr_string (Obs.Trace.render_tree ());
    Obs.Trace.set_enabled false
  end

let stats_cmd =
  let rows =
    Arg.(value & opt int 5000 & info [ "rows" ] ~docv:"N" ~doc:"Number of records to generate.")
  in
  let queries =
    Arg.(
      value & opt int 20
      & info [ "queries" ] ~docv:"N" ~doc:"Query-workload rounds before dumping the registry.")
  in
  let doc = "Run a query workload and dump the metrics registry (optionally a trace)." in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const stats $ seed_arg $ scheme_arg $ rows $ queries $ trace_arg $ opt_dir_arg)

(* ---------------- attack ---------------- *)

let attack seed kind rows column =
  let gen = Sparta.Generator.create ~seed in
  let plaintexts =
    Array.of_seq
      (Seq.map (fun r -> Sparta.Generator.column_string r ~column) (Sparta.Generator.rows gen ~n:rows))
  in
  let dist = Dist.Empirical.of_values (Array.to_seq plaintexts) in
  let g = Stdx.Prng.create seed in
  let master = Crypto.Keys.generate g in
  let enc = Wre.Column_enc.create ~master ~column ~kind ~dist () in
  let snap = Attacks.Snapshot.of_column enc g ~plaintexts in
  Printf.printf "%s column, %d records, %d distinct values, %d distinct tags\n" column rows
    (Dist.Empirical.support_size dist)
    (Attacks.Snapshot.n_distinct_tags snap);
  List.iter
    (fun (name, guess) ->
      Printf.printf "  %-22s %s\n" name
        (Format.asprintf "%a" Attacks.Metrics.pp (Attacks.Metrics.score snap ~guess)))
    [
      ("rank matching", Attacks.Frequency.rank_matching snap);
      ("scheme-aware greedy", Attacks.Frequency.greedy_likelihood snap ~kind);
    ]

let attack_cmd =
  let rows =
    Arg.(value & opt int 20000 & info [ "rows" ] ~docv:"N" ~doc:"Number of records to attack.")
  in
  let column =
    Arg.(
      value & opt string "fname"
      & info [ "column" ] ~docv:"COL" ~doc:"Which census column to encrypt and attack.")
  in
  let doc = "Run frequency-analysis inference attacks against a scheme." in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const attack $ seed_arg $ scheme_arg $ rows $ column)

(* ---------------- encrypt-csv / query-csv ---------------- *)

(* Column spec: "id:int,name:text,score:real?,photo:blob" — '?' marks
   nullable. *)
let parse_columns spec =
  let parse_one part =
    match String.split_on_char ':' part with
    | [ name; ty ] ->
        let nullable = String.length ty > 0 && ty.[String.length ty - 1] = '?' in
        let ty = if nullable then String.sub ty 0 (String.length ty - 1) else ty in
        let ty =
          match String.lowercase_ascii ty with
          | "int" -> Ok Sqldb.Value.TInt
          | "real" -> Ok Sqldb.Value.TReal
          | "text" -> Ok Sqldb.Value.TText
          | "blob" -> Ok Sqldb.Value.TBlob
          | other -> Error (Printf.sprintf "unknown type %S in column spec" other)
        in
        Result.map (fun ty -> { Sqldb.Schema.name; ty; nullable }) ty
    | _ -> Error (Printf.sprintf "malformed column spec %S (want name:type)" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> ( match parse_one p with Ok c -> go (c :: acc) rest | Error e -> Error e)
  in
  go [] (String.split_on_char ',' spec)

let columns_to_spec schema =
  String.concat ","
    (List.map
       (fun (c : Sqldb.Schema.column) ->
         Printf.sprintf "%s:%s%s" c.name
           (String.lowercase_ascii (Sqldb.Value.ty_name c.ty))
           (if c.nullable then "?" else ""))
       (Array.to_list (Sqldb.Schema.columns schema)))

(* Sidecar: the client-side secret material an encrypted CSV needs to
   be queried later — keys, scheme, schema, and the per-column profiled
   distributions. INI-ish sections. *)
let write_sidecar ~path ~kind ~master ~schema ~key_column ~encrypted ~seed ~dists =
  let k0, k1 = Crypto.Keys.export master in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[wre]\n";
  Buffer.add_string buf (Printf.sprintf "scheme=%s\n" (Wre.Scheme.to_string kind));
  Buffer.add_string buf (Printf.sprintf "k0=%s\n" (Stdx.Bytes_util.to_hex k0));
  Buffer.add_string buf (Printf.sprintf "k1=%s\n" (Stdx.Bytes_util.to_hex k1));
  Buffer.add_string buf (Printf.sprintf "seed=%Ld\n" seed);
  Buffer.add_string buf (Printf.sprintf "key_column=%s\n" key_column);
  Buffer.add_string buf (Printf.sprintf "encrypted=%s\n" (String.concat "," encrypted));
  Buffer.add_string buf (Printf.sprintf "columns=%s\n" (columns_to_spec schema));
  List.iter
    (fun (col, dist) ->
      Buffer.add_string buf (Printf.sprintf "[dist %s]\n" col);
      List.iter
        (fun (v, c) -> Buffer.add_string buf (Sqldb.Csv.render [ [ v; string_of_int c ] ]))
        (Dist.Empirical.to_counts dist))
    dists;
  Store.Io.atomic_write_text ~path (Buffer.contents buf)

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_sidecar text =
  let lines = String.split_on_char '\n' text in
  let kv = Hashtbl.create 16 in
  let dists = Hashtbl.create 8 in
  let current = ref `Main in
  let err = ref None in
  List.iter
    (fun line ->
      if !err = None && line <> "" then
        if line.[0] = '[' then begin
          if line = "[wre]" then current := `Main
          else if String.length line > 7 && String.sub line 0 6 = "[dist " then begin
            let col = String.sub line 6 (String.length line - 7) in
            Hashtbl.replace dists col [];
            current := `Dist col
          end
          else err := Some (Printf.sprintf "unknown sidecar section %S" line)
        end
        else begin
          match !current with
          | `Main -> (
              match String.index_opt line '=' with
              | Some i ->
                  Hashtbl.replace kv (String.sub line 0 i)
                    (String.sub line (i + 1) (String.length line - i - 1))
              | None -> err := Some (Printf.sprintf "malformed sidecar line %S" line))
          | `Dist col -> (
              match Sqldb.Csv.parse (line ^ "\n") with
              | Ok [ [ v; c ] ] -> (
                  match int_of_string_opt c with
                  | Some c -> Hashtbl.replace dists col ((v, c) :: Hashtbl.find dists col)
                  | None -> err := Some (Printf.sprintf "bad count in %S" line))
              | _ -> err := Some (Printf.sprintf "bad dist line %S" line))
        end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      let get k =
        match Hashtbl.find_opt kv k with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "sidecar is missing %S" k)
      in
      let ( let* ) = Result.bind in
      let* scheme_str = get "scheme" in
      let* kind = Wre.Scheme.of_string scheme_str in
      let* k0 = get "k0" in
      let* k1 = get "k1" in
      let* seed = get "seed" in
      let* key_column = get "key_column" in
      let* encrypted = get "encrypted" in
      let* columns = get "columns" in
      let* cols = parse_columns columns in
      let schema = Sqldb.Schema.create cols in
      let dist_of col =
        match Hashtbl.find_opt dists col with
        | Some counts -> Dist.Empirical.of_counts counts
        | None -> failwith (Printf.sprintf "sidecar has no distribution for %S" col)
      in
      Ok
        ( kind,
          Crypto.Keys.of_raw ~k0:(Stdx.Bytes_util.of_hex k0) ~k1:(Stdx.Bytes_util.of_hex k1),
          Int64.of_string seed,
          key_column,
          String.split_on_char ',' encrypted,
          schema,
          dist_of )

let encrypt_csv input output sidecar columns_spec key_column encrypted_spec seed kind =
  let ( let* ) = Result.bind in
  let result =
    let* cols = parse_columns columns_spec in
    let schema = Sqldb.Schema.create cols in
    let encrypted = String.split_on_char ',' encrypted_spec in
    let* cells = Sqldb.Csv.parse (read_file input) in
    let* rows = Sqldb.Csv.typed_rows ~schema ~header:true cells in
    let dist_of = Wre.Dist_est.of_rows ~schema ~columns:encrypted (List.to_seq rows) in
    let master = Crypto.Keys.generate (Stdx.Prng.create seed) in
    let db = Sqldb.Database.create () in
    let edb =
      Wre.Encrypted_db.create ~fallback:`Min_frequency ~db ~name:"t" ~plain_schema:schema
        ~key_column ~encrypted_columns:encrypted ~kind ~master ~dist_of ~seed ()
    in
    List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
    let table = Wre.Encrypted_db.table edb in
    let enc_schema = Wre.Encrypted_db.encrypted_schema edb in
    let enc_rows =
      List.init (Sqldb.Table.row_count table) (fun i -> Sqldb.Table.peek_row table i)
    in
    Store.Io.atomic_write_text ~path:output
      (Sqldb.Csv.render (Sqldb.Csv.header_of enc_schema :: Sqldb.Csv.untyped_rows enc_rows));
    write_sidecar ~path:sidecar ~kind ~master ~schema ~key_column ~encrypted ~seed
      ~dists:(List.map (fun c -> (c, dist_of c)) encrypted);
    Printf.printf "encrypted %d rows -> %s (key material in %s)\n" (List.length rows) output
      sidecar;
    Ok ()
  in
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

(* Rebuild one encrypted table (client state from its sidecar, rows
   from its encrypted CSV) inside [db] under [name]. *)
let load_encrypted_csv db ~name ~input ~sidecar =
  let ( let* ) = Result.bind in
  let* kind, master, seed, key_column, encrypted, schema, dist_of =
    parse_sidecar (read_file sidecar)
  in
  let edb =
    Wre.Encrypted_db.create ~fallback:`Min_frequency ~db ~name ~plain_schema:schema ~key_column
      ~encrypted_columns:encrypted ~kind ~master ~dist_of ~seed ()
  in
  let enc_schema = Wre.Encrypted_db.encrypted_schema edb in
  let* cells = Sqldb.Csv.parse (read_file input) in
  let* enc_rows = Sqldb.Csv.typed_rows ~schema:enc_schema ~header:true cells in
  ignore (Sqldb.Table.insert_batch (Wre.Encrypted_db.table edb) (Array.of_list enc_rows) : int);
  Ok edb

let query_csv input sidecar table input2 sidecar2 table2 sql tracing =
  Obs.Trace.set_enabled tracing;
  let ( let* ) = Result.bind in
  let result =
    let db = Sqldb.Database.create () in
    let* edb = load_encrypted_csv db ~name:table ~input ~sidecar in
    let* edbs =
      match (input2, sidecar2) with
      | None, None -> Ok [ edb ]
      | Some input2, Some sidecar2 ->
          let* edb2 = load_encrypted_csv db ~name:table2 ~input:input2 ~sidecar:sidecar2 in
          Ok [ edb; edb2 ]
      | _ -> Error "--input2 and --sidecar2 must be given together"
    in
    let proxy = Wre.Proxy.create_multi edbs in
    let* r = Wre.Proxy.execute proxy sql in
    print_string (Sqldb.Csv.render (r.columns :: Sqldb.Csv.untyped_rows r.rows));
    Printf.eprintf "(%d rows; server handled %d encrypted rows)\n" (List.length r.rows)
      r.server_rows;
    Ok ()
  in
  if tracing then begin
    prerr_string (Obs.Trace.render_tree ());
    Obs.Trace.set_enabled false
  end;
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

let encrypt_csv_cmd =
  let input =
    Arg.(
      required
      & opt (some file) None
      & info [ "input" ] ~docv:"FILE" ~doc:"Plaintext CSV with header row.")
  in
  let output =
    Arg.(
      value & opt string "encrypted.csv"
      & info [ "output" ] ~docv:"FILE" ~doc:"Encrypted CSV to write.")
  in
  let sidecar =
    Arg.(
      value & opt string "wre-keys.sidecar"
      & info [ "sidecar" ] ~docv:"FILE" ~doc:"Key material + distributions (keep secret).")
  in
  let columns =
    Arg.(
      required
      & opt (some string) None
      & info [ "columns" ] ~docv:"SPEC" ~doc:"Schema, e.g. id:int,name:text,notes:text?.")
  in
  let key_column =
    Arg.(
      value & opt string "id"
      & info [ "key-column" ] ~docv:"COL" ~doc:"Plaintext integer key column.")
  in
  let encrypted =
    Arg.(
      required
      & opt (some string) None
      & info [ "encrypt" ] ~docv:"COLS" ~doc:"Comma-separated searchable text columns.")
  in
  let doc = "Encrypt a CSV file into a searchable encrypted CSV + key sidecar." in
  Cmd.v (Cmd.info "encrypt-csv" ~doc)
    Term.(
      ret
        (const encrypt_csv $ input $ output $ sidecar $ columns $ key_column $ encrypted
       $ seed_arg $ scheme_arg))

let query_csv_cmd =
  let input =
    Arg.(required & opt (some file) None & info [ "input" ] ~docv:"FILE" ~doc:"Encrypted CSV.")
  in
  let sidecar =
    Arg.(
      required & opt (some file) None
      & info [ "sidecar" ] ~docv:"FILE" ~doc:"Sidecar from encrypt-csv.")
  in
  let table =
    Arg.(
      value & opt string "t"
      & info [ "table" ] ~docv:"NAME" ~doc:"Table name the SQL refers to the first CSV by.")
  in
  let input2 =
    Arg.(
      value
      & opt (some file) None
      & info [ "input2" ] ~docv:"FILE" ~doc:"Second encrypted CSV, for two-table JOIN queries.")
  in
  let sidecar2 =
    Arg.(
      value
      & opt (some file) None
      & info [ "sidecar2" ] ~docv:"FILE" ~doc:"Sidecar of the second CSV.")
  in
  let table2 =
    Arg.(
      value & opt string "t2"
      & info [ "table2" ] ~docv:"NAME" ~doc:"Table name the SQL refers to the second CSV by.")
  in
  let sql =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL"
          ~doc:
            "Plaintext SELECT, e.g. \"SELECT * FROM t WHERE name = 'Alice'\" — or, with \
             --input2/--sidecar2, a JOIN such as \"SELECT * FROM t JOIN t2 ON t.name = \
             t2.name\" (result headers are qualified: t.id, t.name, t2.id, …).")
  in
  let doc = "Query one or two encrypted CSVs with plaintext SQL (rewriting proxy + decryption)." in
  Cmd.v (Cmd.info "query-csv" ~doc)
    Term.(
      ret
        (const query_csv $ input $ sidecar $ table $ input2 $ sidecar2 $ table2 $ sql $ trace_arg))

(* ---------------- init / open (durable store) ---------------- *)

let store_exists dir =
  Sys.file_exists (Filename.concat dir "snapshot.bin")
  || Sys.file_exists (Filename.concat dir "wal.bin")

let init_store dir input columns_spec key_column encrypted_spec seed kind =
  let ( let* ) = Result.bind in
  let result =
    if store_exists dir then
      Error (Printf.sprintf "%s already holds a store; use 'wre open --dir %s'" dir dir)
    else
      let* cols = parse_columns columns_spec in
      let schema = Sqldb.Schema.create cols in
      let encrypted = String.split_on_char ',' encrypted_spec in
      let* cells = Sqldb.Csv.parse (read_file input) in
      let* rows = Sqldb.Csv.typed_rows ~schema ~header:true cells in
      let dist_of = Wre.Dist_est.of_rows ~schema ~columns:encrypted (List.to_seq rows) in
      let master = Crypto.Keys.generate (Stdx.Prng.create seed) in
      let store = Store.Engine.open_dir ~dir () in
      let edb =
        Store.Engine.create_encrypted store ~fallback:`Min_frequency ~name:"t"
          ~plain_schema:schema ~key_column ~encrypted_columns:encrypted ~kind ~master ~dist_of
          ~seed ()
      in
      ignore (Wre.Encrypted_db.insert_batch edb (Array.of_list rows));
      Store.Engine.checkpoint store;
      Store.Engine.close store;
      Printf.printf "initialized %s: table \"t\", %d rows under %s (checkpointed)\n" dir
        (List.length rows) (Wre.Scheme.to_string kind);
      Ok ()
  in
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

(* Recover a store and print what recovery did; the optional flags make
   this the one binary the CI crash-recovery smoke needs: [--sql] runs a
   statement through the rewriting proxy, [--kill9] flushes the WAL and
   then dies without closing, so the next open exercises WAL replay. *)
let open_store dir sql do_checkpoint do_vacuum kill9 =
  let ( let* ) = Result.bind in
  let result =
    if not (store_exists dir) then
      Error (Printf.sprintf "%s does not hold a store; use 'wre init --dir %s'" dir dir)
    else begin
      let store = Store.Engine.open_dir ~dir () in
      let r = Store.Engine.recovery store in
      Printf.printf "opened %s: snapshot %s, %d WAL records replayed in %.2f ms\n" dir
        (if r.Store.Engine.snapshot_loaded then "loaded" else "absent")
        r.Store.Engine.replayed
        (r.Store.Engine.duration_ns /. 1e6);
      List.iter
        (fun t ->
          Printf.printf "  table %s: %d live rows, %d heap slots\n" (Sqldb.Table.name t)
            (Sqldb.Table.live_count t) (Sqldb.Table.row_count t))
        (Sqldb.Database.tables (Store.Engine.db store));
      let* () =
        match sql with
        | None -> Ok ()
        | Some q -> (
            match Store.Engine.encrypted_names store with
            | [] -> Error "store has no encrypted tables to query"
            | names ->
                (* All encrypted tables, so --sql can run two-table
                   JOINs against a multi-table store. *)
                let proxy =
                  Wre.Proxy.create_multi
                    (List.map (fun n -> Option.get (Store.Engine.encrypted store n)) names)
                in
                let* res = Wre.Proxy.execute proxy q in
                print_string (Sqldb.Csv.render (res.columns :: Sqldb.Csv.untyped_rows res.rows));
                Printf.eprintf "(%d rows, %d affected)\n" (List.length res.rows) res.affected;
                Ok ())
      in
      if do_vacuum then
        List.iter Sqldb.Table.vacuum (Sqldb.Database.tables (Store.Engine.db store));
      if do_checkpoint then Store.Engine.checkpoint store;
      if kill9 then begin
        (* Durability point: everything acked is on disk, but no
           checkpoint and no clean shutdown — recovery must replay. *)
        Store.Engine.flush store;
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      Store.Engine.close store;
      Ok ()
    end
  in
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

let req_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Durable store directory.")

let init_cmd =
  let input =
    Arg.(
      required
      & opt (some file) None
      & info [ "input" ] ~docv:"FILE" ~doc:"Plaintext CSV with header row.")
  in
  let columns =
    Arg.(
      required
      & opt (some string) None
      & info [ "columns" ] ~docv:"SPEC" ~doc:"Schema, e.g. id:int,name:text,notes:text?.")
  in
  let key_column =
    Arg.(
      value & opt string "id"
      & info [ "key-column" ] ~docv:"COL" ~doc:"Plaintext integer key column.")
  in
  let encrypted =
    Arg.(
      required
      & opt (some string) None
      & info [ "encrypt" ] ~docv:"COLS" ~doc:"Comma-separated searchable text columns.")
  in
  let doc = "Create a durable encrypted store directory from a plaintext CSV." in
  Cmd.v (Cmd.info "init" ~doc)
    Term.(
      ret
        (const init_store $ req_dir_arg $ input $ columns $ key_column $ encrypted $ seed_arg
       $ scheme_arg))

let open_cmd =
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL" ~doc:"Statement to run through the rewriting proxy.")
  in
  let checkpoint =
    Arg.(value & flag & info [ "checkpoint" ] ~doc:"Write a snapshot and truncate the WAL.")
  in
  let vacuum =
    Arg.(value & flag & info [ "vacuum" ] ~doc:"Reclaim dead rows in every table first.")
  in
  let kill9 =
    Arg.(
      value & flag
      & info [ "kill9" ]
          ~doc:"Flush the WAL, then SIGKILL this process (crash-recovery testing).")
  in
  let doc = "Recover a durable store, report what recovery did, optionally run SQL." in
  Cmd.v (Cmd.info "open" ~doc)
    Term.(ret (const open_store $ req_dir_arg $ sql $ checkpoint $ vacuum $ kill9))

(* ---------------- connect (wre_server client) ---------------- *)

let connect_run socket sql show_stats =
  let ( let* ) = Result.bind in
  let result =
    let* c = Server.Client.connect ~socket_path:socket () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        Printf.eprintf "session %Ld: tables %s\n" (Server.Client.session_id c)
          (String.concat ", " (Server.Client.tables c));
        let run_one q =
          let* r = Server.Client.query c q in
          print_string
            (Sqldb.Csv.render
               (r.Server.Wire.columns :: Sqldb.Csv.untyped_rows r.Server.Wire.rows));
          Printf.eprintf "(%d rows, %d affected; server handled %d encrypted rows)\n"
            (List.length r.Server.Wire.rows)
            r.Server.Wire.affected r.Server.Wire.server_rows;
          Ok ()
        in
        let* () =
          match sql with
          | Some q -> run_one q
          | None when show_stats -> Ok ()
          | None ->
              (* One statement per stdin line (scripted use). *)
              let rec loop () =
                match In_channel.input_line stdin with
                | None -> Ok ()
                | Some line when String.trim line = "" -> loop ()
                | Some line ->
                    let* () = run_one line in
                    loop ()
              in
              loop ()
        in
        if show_stats then
          let* text = Server.Client.stats c in
          print_string text;
          Ok ()
        else Ok ())
  in
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

let connect_cmd =
  let socket =
    Arg.(
      value
      & opt string "/tmp/wre_server.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of a running wre_server.")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL"
          ~doc:"Statement to run remotely; without it, statements are read from stdin.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Dump the server's metrics registry at the end.")
  in
  let doc = "Run SQL against a running wre_server over its Unix-domain socket." in
  Cmd.v (Cmd.info "connect" ~doc) Term.(ret (const connect_run $ socket $ sql $ stats))

let () =
  let doc = "weakly randomized encryption (DSN 2019) toolkit" in
  let info = Cmd.info "wre" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            keygen_cmd;
            schemes_cmd;
            lambda_for_cmd;
            demo_cmd;
            stats_cmd;
            attack_cmd;
            encrypt_csv_cmd;
            query_csv_cmd;
            init_cmd;
            open_cmd;
            connect_cmd;
          ]))
