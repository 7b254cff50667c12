(* wrebench: the wall-clock benchmark of the shipped wre_server.

   One invocation runs one workload (see README.md): generate the inputs
   from --seed, set the store up, start bin/wre_server with its defaults,
   drive it closed-loop from two connections, check every reply against
   a plaintext Sqldb oracle, kill -9 and restart it, and report. With
   --trace 1 the same statement lists are replayed in process through a
   traced replica of the server pipeline instead, for per-layer numbers.

   Prints every metric with its unit, then, as the last line of stdout,
   {"correct", "attempted", "failed", "metrics"} as JSON; writes
   OUT/WORKLOAD.json (and OUT/WORKLOAD.trace.jsonl when traced). *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  metrics : metric list;  (** what the last stdout line carries *)
  extra : metric list;  (** W.json and the printed table only *)
  attempted : int;
  failed : int;
  errors : string list;
  statements : int;
}

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("wrebench: " ^ s)) fmt

let percentile xs p = if Array.length xs = 0 then nan else Stdx.Stats.percentile xs p

let latencies (r : Wire_run.result) keep =
  Array.of_list
    (List.filter_map
       (fun (s : Wire_run.sample) -> if keep s.op then Some (s.ns /. 1e6) else None)
       (Array.to_list r.samples))

let failures (r : Wire_run.result) =
  Array.fold_left (fun n (s : Wire_run.sample) -> if s.ok then n else n + 1) 0 r.samples

let scale_tag rows =
  if rows mod 1000 = 0 then Printf.sprintf "%dk" (rows / 1000) else string_of_int rows

(* ---------------- the untraced run ---------------- *)

(* kill -9 the server [n] times, timing each restart to its Welcome. *)
let crash_restarts ~exe (s : Setup.t) ~n =
  let rec go pid i acc =
    Proc.stop pid Sys.sigkill;
    let t0 = Stdx.Clock.now_ns () in
    let pid = Proc.start_server ~exe ~dir:s.dir ~socket:s.socket in
    let acc = ((Stdx.Clock.now_ns () -. t0) /. 1e9) :: acc in
    if i + 1 < n then go pid (i + 1) acc else (pid, List.rev acc)
  in
  go s.pid 0 []

(* The checks after the measured phase, then [n] kill -9 restarts, then
   the checks again; the server is left stopped. Returns the number of
   checks, the failed ones, and each restart's time to Welcome. *)
let check_and_crash (inp : Inputs.t) ~exe (s : Setup.t) ~n =
  let before = inp.post_checks inp in
  let after_run = Wire_run.verify ~socket:s.socket before in
  let pid, recoveries = crash_restarts ~exe s ~n in
  log "kill -9 restarts: %s s" (String.concat " " (List.map (Printf.sprintf "%.2f") recoveries));
  let after = inp.post_checks inp in
  let after_restart = Wire_run.verify ~socket:s.socket after in
  Proc.stop pid Sys.sigterm;
  (List.length before + List.length after, after_run @ after_restart, recoveries)

let untraced (inp : Inputs.t) ~exe ~out ~seconds ~budget ~setup_reps =
  let scratch = Proc.make_scratch ~out in
  let s, setups = Setup.repeated inp ~exe ~scratch ~reps:setup_reps in
  log "set-up x%d: %s s" setup_reps (String.concat " " (List.map (Printf.sprintf "%.2f") setups));
  let wire = Wire_run.run inp ~socket:s.socket ~seconds ~budget in
  log "measured %d statements in %.1f s" (Array.length wire.samples) wire.wall_s;
  let rss = Proc.peak_rss_mib s.pid in
  let checks, failed_checks, _ = check_and_crash inp ~exe s ~n:1 in
  Proc.rm_rf scratch;
  let lat keep p = percentile (latencies wire keep) p in
  let all _ = true and star op = op = Inputs.Star and id op = op = Inputs.Id in
  let writes op = not (Inputs.is_read op) in
  let checks_failed = List.length failed_checks in
  let metrics =
    [
      m "setup_s" "s" (Stdx.Stats.median (Array.of_list setups));
      m "qps" "1/s" (float_of_int (Array.length wire.samples) /. wire.wall_s);
      m "p50_ms" "ms" (lat all 50.0);
      m "p90_ms" "ms" (lat all 90.0);
      m "server_rss_mib" "MiB" rss;
      m "disk_bytes_per_row" "bytes" (float_of_int s.disk_bytes /. float_of_int (Inputs.rows_loaded inp));
    ]
  in
  let count keep = float_of_int (Array.length (latencies wire keep)) in
  (* Per-class latencies rest on half the samples or fewer and move more
     from run to run, so they are reported, not bounded. *)
  let extra =
    [
      m "statements.star" "count" (count star);
      m "statements.id" "count" (count id);
      m "statements.write" "count" (count writes);
      m "select_star_p50_ms" "ms" (lat star 50.0);
      m "select_star_p90_ms" "ms" (lat star 90.0);
      m "select_id_p50_ms" "ms" (lat id 50.0);
      m "select_id_p90_ms" "ms" (lat id 90.0);
      m "failed_frac" "fraction"
        (float_of_int (failures wire + checks_failed) /. float_of_int (Array.length wire.samples + checks));
    ]
    @ (if count writes > 0.0 then
         [
           m "read_p50_ms" "ms" (lat Inputs.is_read 50.0);
           m "read_p90_ms" "ms" (lat Inputs.is_read 90.0);
           m "write_p50_ms" "ms" (lat writes 50.0);
           m "write_p90_ms" "ms" (lat writes 90.0);
         ]
       else [])
    @ List.mapi (fun i v -> m (Printf.sprintf "setup_s.rep%d" i) "s" v) setups
  in
  {
    metrics;
    extra;
    attempted = Array.length wire.samples + checks;
    failed = failures wire + checks_failed;
    errors = wire.errors @ failed_checks;
    statements = Array.length wire.samples;
  }

(* ---------------- the traced run ---------------- *)

let traced (inp : Inputs.t) ~exe ~out ~seconds ~budget ~wname =
  let scratch = Proc.make_scratch ~out in
  let dir = Filename.concat scratch "store" and socket = Filename.concat scratch "s.sock" in
  let s = Setup.run inp ~exe ~dir ~socket in
  let half = seconds /. 2.0 in
  let wire = Wire_run.run inp ~socket ~seconds:half ~budget in
  let checks, failed_checks, recoveries = check_and_crash inp ~exe s ~n:5 in
  let store, open_ns = Stdx.Clock.time_it (fun () -> Store.Engine.open_dir ~dir ()) in
  let ctx = Replica.create store in
  let rep, counts =
    Fun.protect
      ~finally:(fun () ->
        Replica.stop ctx;
        Store.Engine.close store)
      (fun () ->
        let rep = Replica.run ctx inp ~seconds:half ~budget in
        (rep, Replica.count_reads ctx inp ~rounds:3))
  in
  Store.Io.atomic_write_text ~path:(Filename.concat out (wname ^ ".trace.jsonl")) (Buffer.contents ctx.jsonl);
  let stmts, batch = Replica.by_statement (List.rev ctx.spans) in
  let is op (st : Replica.stmt_spans) = st.op = op in
  let reads = List.filter (fun (st : Replica.stmt_spans) -> is "star" st || is "id" st) stmts in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let sum sts f = List.fold_left (fun acc st -> acc +. f st) 0.0 sts in
  let count sts = float_of_int (List.length sts) in
  let dur names (st : Replica.stmt_spans) = List.fold_left (fun acc k -> acc +. Replica.get st.dur k) 0.0 names in
  let attr name (st : Replica.stmt_spans) = Replica.get st.attr name in
  let mean_us sts names = ratio (sum sts (dur names)) (count sts) /. 1e3 in
  let per_read sts name = ratio (sum sts (attr name)) (count sts) in
  let of_op op = List.filter (is op) reads in
  let decrypt = [ "proxy.decrypt" ] in
  let ns_per_row sts = ratio (sum sts (dur decrypt)) (sum sts (attr "proxy.decrypt.rows_decrypted")) in
  let sum_frac sts = ratio (sum sts Replica.direct_total) (sum sts (dur [ "proxy.execute" ])) in
  let selects = List.filter (fun st -> dur [ "proxy.residual_filter#" ] st > 0.0) reads in
  let counted name = List.fold_left (fun acc c -> acc +. Replica.get counts (name, c)) 0.0 [ "star"; "id" ] in
  let wire_p50 = percentile (latencies wire (fun _ -> true)) 50.0 in
  let replica_p50 = percentile (latencies rep (fun _ -> true)) 50.0 in
  let metrics =
    [
      m "admission.wait_us" "us" (mean_us stmts [ "admission.wait" ]);
      m "wire.request_us" "us" (mean_us stmts [ "wire.request" ]);
      m "wire.reply_us" "us" (mean_us stmts [ "wire.reply" ]);
      m "wire.reply_bytes_per_stmt" "bytes" (per_read stmts "wire.reply.bytes");
      m "sql.parse_us" "us" (mean_us reads [ "proxy.parse" ]);
      m "proxy.rewrite_us" "us" (mean_us reads [ "proxy.rewrite"; "proxy.join_rewrite" ]);
      m "proxy.tokens_per_stmt" "count" (ratio (counted "tokens") (counted "stmts"));
      m "proxy.traversal_frac" "fraction" (ratio (counted "traversals") (counted "stmts"));
      m "encrypted_db.freeze_us" "us"
        (ratio (dur [ "encrypted_db.freeze" ] batch) (dur [ "encrypted_db.freeze#" ] batch) /. 1e3);
      m "executor.exec_us" "us" (mean_us reads [ "proxy.server_exec"; "proxy.join_server_exec" ]);
      m "executor.probe_us" "us" (ratio (counted "probe_ns") (counted "selects") /. 1e3);
      m "executor.candidates_per_stmt" "count" (per_read reads "executor.result.candidates");
      m "executor.pages_per_stmt" "count" (per_read reads "executor.result.pages");
      m "encrypted_db.decrypt_us" "us" (mean_us reads decrypt);
      m "encrypted_db.decrypt_us.star" "us" (mean_us (of_op "star") decrypt);
      m "encrypted_db.decrypt_us.id" "us" (mean_us (of_op "id") decrypt);
      m "encrypted_db.decrypt_ns_per_row" "ns" (ns_per_row reads);
      m "encrypted_db.decrypt_ns_per_row.star" "ns" (ns_per_row (of_op "star"));
      m "encrypted_db.decrypt_ns_per_row.id" "ns" (ns_per_row (of_op "id"));
      m "encrypted_db.rows_decrypted_per_stmt" "count" (per_read reads "proxy.decrypt.rows_decrypted");
      m "predicate.residual_us" "us" (mean_us reads [ "proxy.residual_filter"; "proxy.join_verify" ]);
      m "predicate.kept_frac" "fraction"
        (ratio (sum selects (attr "proxy.residual_filter.kept")) (sum selects (attr "proxy.decrypt.rows_decrypted")));
      m "join.candidate_pairs_per_stmt" "count" (per_read reads "proxy.join_verify.pairs_candidate");
      m "join.verified_frac" "fraction"
        (ratio (sum reads (attr "proxy.join_verify.pairs_verified")) (sum reads (attr "proxy.join_verify.pairs_candidate")));
      m "layers.sum_frac" "fraction" (sum_frac reads);
      m "layers.sum_frac.star" "fraction" (sum_frac (of_op "star"));
      m "layers.sum_frac.id" "fraction" (sum_frac (of_op "id"));
      m "replica.p50_us" "us" (replica_p50 *. 1e3);
      m "server.gap_us" "us" ((wire_p50 -. replica_p50) *. 1e3);
      m "encrypted_db.ingest_rows_per_s" "1/s" s.ingest_rows_per_s;
      m "store.checkpoint_s" "s" s.checkpoint_s;
      m "store.open_s" "s" (open_ns /. 1e9);
      m "store.snapshot_bytes" "bytes" (float_of_int s.snapshot_bytes);
      m "recovery_s" "s" (Stdx.Stats.median (Array.of_list recoveries));
    ]
  in
  (* Where a write's Proxy.execute spends its time, per op, from the
     library's spans directly under it; "self" is the part none of them
     covers (encrypting, tombstoning, inserting, the WAL append and its
     fsync). *)
  let extra =
    List.concat_map
      (fun op ->
        let ws = List.filter (is op) stmts in
        if ws = [] then []
        else
          let names =
            List.sort_uniq compare
              (List.concat_map (fun (st : Replica.stmt_spans) -> List.of_seq (Hashtbl.to_seq_keys st.direct)) ws)
          in
          let part name = ratio (sum ws (fun st -> Replica.get st.direct name)) (count ws) /. 1e3 in
          let self = ratio (sum ws (fun st -> dur [ "proxy.execute" ] st -. Replica.direct_total st)) (count ws) in
          (m (Printf.sprintf "proxy.write_us.%s" op) "us" (mean_us ws [ "proxy.execute" ])
          :: List.map (fun name -> m (Printf.sprintf "proxy.write_us.%s.%s" op name) "us" (part name)) names)
          @ [ m (Printf.sprintf "proxy.write_us.%s.self" op) "us" (self /. 1e3) ])
      [ "insert"; "update"; "delete" ]
  in
  Proc.rm_rf scratch;
  {
    metrics;
    extra =
      extra
      @ [ m "statements.replica" "count" (float_of_int (Array.length rep.samples)) ]
      @ List.mapi (fun i v -> m (Printf.sprintf "recovery_s.rep%d" i) "s" v) recoveries;
    attempted = Array.length wire.samples + Array.length rep.samples + checks;
    failed = failures wire + failures rep + List.length failed_checks;
    errors = wire.errors @ rep.errors @ failed_checks;
    statements = Array.length rep.samples;
  }

(* ---------------- reporting ---------------- *)

let num v = Printf.sprintf "%.12g" v

(* A metric that could not be computed is null (and the run incorrect). *)
let metrics_json sep ms =
  String.concat sep
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
           (if Float.is_finite x.value then num x.value else "null")
           x.unit_)
       ms)

let report ~out ~wname ~(inp : Inputs.t) ~seconds ~trace (o : outcome) =
  let correct = o.failed = 0 && List.for_all (fun x -> Float.is_finite x.value) o.metrics in
  List.iter (fun e -> log "%s: %s" wname e) o.errors;
  let t = Stdx.Table_fmt.create [ "metric"; "value"; "unit" ] in
  List.iter (fun x -> Stdx.Table_fmt.add_row t [ x.name; num x.value; x.unit_ ]) (o.metrics @ o.extra);
  Stdx.Table_fmt.print t;
  let rows = Array.length (List.hd inp.tables).load in
  let doc =
    Printf.sprintf
      "{\n  \"name\": \"wrebench\",\n  \"workload\": %S,\n  \"seed\": %d,\n  \"traced\": %b,\n  \
       \"config\": {\"rows\": %d, \"scale\": %S, \"cores\": %d, \"clients\": %d, \"scheme\": %S, \
       \"seconds\": %s, \"statements_run\": %d},\n  \"correct\": %b,\n  \"attempted\": %d,\n  \
       \"failed\": %d,\n  \"metrics\": {\n    %s\n  }\n}\n"
      wname inp.seed trace rows (scale_tag rows)
      (Domain.recommended_domain_count ())
      Inputs.clients
      (Wre.Scheme.to_string inp.scheme)
      (num seconds) o.statements correct o.attempted o.failed
      (metrics_json ",\n    " (o.metrics @ o.extra))
  in
  Store.Io.atomic_write_text ~path:(Filename.concat out (wname ^ ".json")) doc;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.attempted o.failed (metrics_json ", " o.metrics);
  correct

let run_one ~exe ~out ~wname ~seed ~seconds ~trace ~rows ~budget ~setup_reps =
  match Inputs.of_name wname with
  | None -> failwith (Printf.sprintf "wrebench: unknown workload %S" wname)
  | Some w ->
      if not (Sys.file_exists out) then Unix.mkdir out 0o755;
      let statements = if budget > 0 then budget else Inputs.default_statements w in
      let inp, ns = Stdx.Clock.time_it (fun () -> Inputs.make w ~seed ~rows ~statements) in
      log "%s: inputs and oracle answers in %.1f s" wname (ns /. 1e9);
      let o =
        if trace then traced inp ~exe ~out ~seconds ~budget ~wname
        else untraced inp ~exe ~out ~seconds ~budget ~setup_reps
      in
      (report ~out ~wname ~inp ~seconds ~trace o, List.map (fun x -> x.name) o.metrics)

(* ---------------- BENCHMARK.json ---------------- *)

(* The metric lines of BENCHMARK.json, one object per line:
   (name, Some bound) for end-to-end metrics, (name, None) per layer. *)
let declared path =
  match Store.Io.read_file path with
  | None -> []
  | Some text ->
      List.filter_map
        (fun line ->
          match
            Scanf.sscanf line " {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %f}"
              (fun n _ _ b -> (n, Some b))
          with
          | x -> Some x
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> (
              match
                Scanf.sscanf line " {\"name\": %S, \"unit\": %S, \"better\": %S}" (fun n _ _ ->
                    (n, None))
              with
              | x -> Some x
              | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None))
        (String.split_on_char '\n' text)

(* The metrics of a W.json written by [report]. *)
let read_metrics path =
  match Store.Io.read_file path with
  | None -> []
  | Some text ->
      List.filter_map
        (fun line ->
          match Scanf.sscanf line " %S: {\"value\": %f, \"unit\": %S}" (fun n v _ -> (n, v)) with
          | x -> Some x
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
        (String.split_on_char '\n' text)

(* ---------------- --repeat ---------------- *)

(* Python's statistics.quantiles(xs, n=4) (exclusive method). *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  let at i = a.(max 0 (min (n - 1) i)) in
  let q i =
    let j = i * (n + 1) / 4 and delta = (i * (n + 1)) mod 4 in
    ((at (j - 1) *. float_of_int (4 - delta)) +. (at j *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let child ~exe ~out ~args =
  let self = Sys.executable_name in
  let pid = Proc.spawn self (args @ [ "--server"; exe; "--out"; out ]) in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
      Proc.forget pid;
      true
  | _ ->
      Proc.forget pid;
      false

let repeat ~exe ~out ~seed ~seconds ~trace ~n ~bounds =
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let bound_of = declared bounds in
  let runs = Hashtbl.create 8 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let order = if i mod 2 = 0 then Inputs.all else List.rev Inputs.all in
    List.iter
      (fun w ->
        let wname = Inputs.name w in
        let args =
          [
            "--workload"; wname; "--seed"; string_of_int (seed + i); "--seconds"; num seconds;
            "--trace"; (if trace then "1" else "0");
          ]
        in
        let result = Filename.concat out (wname ^ ".json") in
        Proc.rm_rf result;
        let correct =
          child ~exe ~out ~args
          &&
          match Store.Io.read_file result with
          | Some text -> List.mem "  \"correct\": true," (String.split_on_char '\n' text)
          | None -> false
        in
        if not correct then begin
          ok := false;
          log "%s run %d failed or was not correct" wname i
        end;
        let prev = Option.value ~default:[] (Hashtbl.find_opt runs wname) in
        Hashtbl.replace runs wname (read_metrics result :: prev))
      order
  done;
  List.iter
    (fun w ->
      let wname = Inputs.name w in
      let results = Option.value ~default:[] (Hashtbl.find_opt runs wname) in
      Printf.printf "\n=== %s: %d runs, seeds %d..%d ===\n" wname (List.length results) seed (seed + n - 1);
      let t =
        Stdx.Table_fmt.create [ "metric"; "median"; "q1"; "q3"; "iqr/median"; "range/median"; "bound"; "verdict" ]
      in
      let names = match results with [] -> [] | r :: _ -> List.map fst r in
      List.iter
        (fun name ->
          let vs = Array.of_list (List.filter_map (List.assoc_opt name) results) in
          let q1, med, q3 = quartiles vs in
          let lo = Array.fold_left Float.min infinity vs and hi = Array.fold_left Float.max neg_infinity vs in
          let rel x = if med = 0.0 then 0.0 else Float.abs (x /. med) in
          let bound = Option.join (List.assoc_opt name bound_of) in
          let verdict =
            match bound with
            | None -> ""
            | Some b when name = "setup_s" -> if rel (q3 -. q1) <= b then "ok" else "wide (not checked)"
            | Some b ->
                if rel (q3 -. q1) <= b /. 3.0 then "ok"
                else if rel (q3 -. q1) <= b then "within bound"
                else "TOO NOISY"
          in
          Stdx.Table_fmt.add_row t
            [
              name; num med; num q1; num q3;
              Printf.sprintf "%.4f" (rel (q3 -. q1));
              Printf.sprintf "%.4f" (rel (hi -. lo));
              (match bound with None -> "-" | Some b -> Printf.sprintf "%.3f" b);
              verdict;
            ])
        names;
      Stdx.Table_fmt.print t)
    Inputs.all;
  !ok

(* ---------------- --smoke ---------------- *)

(* Every workload at a small scale and a fixed statement budget, both
   untraced and traced: fails on any oracle mismatch, and unless the
   result line carries exactly the metrics BENCHMARK.json declares. *)
let smoke ~exe ~out ~bounds =
  let decl = declared bounds in
  let e2e = List.filter_map (fun (n, b) -> Option.map (fun _ -> n) b) decl in
  let per_layer = List.filter_map (fun (n, b) -> if b = None then Some n else None) decl in
  List.for_all
    (fun w ->
      List.for_all
        (fun trace ->
          let wname = Inputs.name w in
          let correct, got =
            run_one ~exe ~out ~wname ~seed:1 ~seconds:3.0 ~trace ~rows:2000 ~budget:20 ~setup_reps:1
          in
          let want = if trace then per_layer else e2e in
          let missing = List.filter (fun n -> not (List.mem n got)) want in
          let undeclared = List.filter (fun n -> not (List.mem n want)) got in
          List.iter (fun n -> log "smoke: %s is missing %s" wname n) missing;
          List.iter (fun n -> log "smoke: %s reports undeclared %s" wname n) undeclared;
          if not correct then log "smoke: %s (traced=%b) is not correct" wname trace;
          correct && missing = [] && undeclared = [] && want <> [])
        [ false; true ])
    Inputs.all

(* ---------------- command line ---------------- *)

let main workload seed seconds trace exe out repeat_n smoke_mode bounds =
  Proc.install ();
  let trace = trace = 1 in
  if smoke_mode then (if not (smoke ~exe ~out ~bounds) then exit 1)
  else if repeat_n > 0 then (
    if not (repeat ~exe ~out ~seed ~seconds ~trace ~n:repeat_n ~bounds) then exit 1)
  else
    match workload with
    | None -> failwith "wrebench: --workload is required (or --repeat N / --smoke)"
    | Some wname ->
        (* A run that printed its result line exits 0; the verdict is the
           line's "correct". A run measures for --seconds over 10k rows
           and sets up three times. *)
        ignore
          (run_one ~exe ~out ~wname ~seed ~seconds ~trace ~rows:10_000 ~budget:0 ~setup_reps:3
            : bool * string list)

let () =
  let open Cmdliner in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W"
           ~doc:"Workload to run: sparta, range, join or read-write.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed every input is generated from.") in
  let seconds =
    Arg.(value & opt float 15.0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Length of the measured phase (the traced run splits it in two).")
  in
  let trace = Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1 = the traced per-layer run.") in
  let exe =
    Arg.(value & opt string "_build/default/bin/wre_server.exe" & info [ "server" ] ~docv:"PATH"
           ~doc:"The wre_server executable to measure.")
  in
  let out =
    Arg.(value & opt string "_wrebench" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for WORKLOAD.json, traces and the scratch store.")
  in
  let repeat_n =
    Arg.(value & opt int 0 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run every workload N times on seeds SEED..SEED+N-1, alternating workload order, and \
                 print each metric's median, IQR and range against its BENCHMARK.json bound.")
  in
  let smoke_mode =
    Arg.(value & flag & info [ "smoke" ] ~doc:"All workloads at 2k rows and 20 statements, untraced and traced.")
  in
  let bounds =
    Arg.(value & opt string "BENCHMARK.json" & info [ "bounds" ] ~docv:"FILE"
           ~doc:"BENCHMARK.json, for the metric list and bounds.")
  in
  let doc = "wall-clock benchmark of the shipped wre_server" in
  let term =
    Term.(
      const main $ workload $ seed $ seconds $ trace $ exe $ out $ repeat_n $ smoke_mode $ bounds)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "wrebench" ~doc) term))
