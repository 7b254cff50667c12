(* The traced run's replica of the server pipeline, rebuilt in process
   from public calls so nothing inside lib/ changes. Client threads
   submit statements to a Server.Admission.t with the daemon's default
   window and batch_max. A read batch does what the daemon's
   run_read_batch does: freeze the primary table once, then fan the
   batch's statements over a Task_pool of the daemon's default size,
   each through Proxy.execute_snapshot on that view. A write goes
   through Proxy.execute. Around each statement the replica adds the
   admission wait and the request and reply framing
   (Wire.encode/decode); the layers inside come from the library's own
   spans (proxy.parse, proxy.rewrite, proxy.server_exec, proxy.decrypt,
   proxy.residual_filter, and their join counterparts). *)

open Sqldb

type ctx = {
  proxy : Wre.Proxy.t;
  primary : Wre.Encrypted_db.t;
  pool : Stdx.Task_pool.t;
  mutable spans : Obs.Trace.span list;  (** drained from the ring buffer, newest first *)
  jsonl : Buffer.t;  (** the same spans, rendered as they are drained *)
  mutable undrained : int;  (** statements since the last drain *)
}

(* Move the ring buffer's spans out. A statement leaves about 15, so
   draining every 200 statements stays well inside the ring. *)
let drain ctx =
  ctx.spans <- List.rev_append (Obs.Trace.spans ()) ctx.spans;
  Buffer.add_string ctx.jsonl (Obs.Trace.render_jsonl ());
  Obs.Trace.clear ();
  ctx.undrained <- 0

let after ctx n =
  ctx.undrained <- ctx.undrained + n;
  if ctx.undrained >= 200 then drain ctx

type job = { st : Inputs.stmt; submit_ns : float }

let response = function
  | Ok (q : Wre.Proxy.query_result) ->
      Server.Wire.Result
        { Server.Wire.columns = q.columns; rows = q.rows; affected = q.affected; server_rows = q.server_rows }
  | Error m -> Server.Wire.Failed { message = m }

(* Pager pages the statement's server-side work touched. *)
let pages (q : Wre.Proxy.query_result) =
  let of_stats (s : Pager.stats) = s.hits + s.misses in
  match (q.exec, q.join_exec) with
  | Some e, _ -> of_stats e.Executor.stats
  | None, Some j -> of_stats j.Join.stats
  | None, None -> 0

(* One statement, as a "replica.statement" span carrying its class:
   the time since submit, request decode, [execute], then reply encode
   and the client's decode. *)
let statement j execute =
  Obs.Trace.with_span "replica.statement" ~attrs:[ ("op", Inputs.op_name j.st.op) ] (fun () ->
      Obs.Trace.add ~name:"admission.wait" ~start_ns:j.submit_ns
        ~dur_ns:(Stdx.Clock.now_ns () -. j.submit_ns)
        ();
      ignore
        (Obs.Trace.with_span "wire.request" (fun () ->
             Server.Wire.decode_request (Server.Wire.encode_request (Server.Wire.Query { sql = j.st.sql }))));
      let r = execute j.st.sql in
      Result.iter
        (fun (q : Wre.Proxy.query_result) ->
          Obs.Trace.event "executor.result"
            ~attrs:[ ("candidates", string_of_int q.server_rows); ("pages", string_of_int (pages q)) ])
        r;
      let resp = response r in
      let t0 = Stdx.Clock.now_ns () in
      let s = Server.Wire.encode_response resp in
      ignore (Server.Wire.decode_response s);
      Obs.Trace.add ~name:"wire.reply"
        ~attrs:[ ("bytes", string_of_int (String.length s)) ]
        ~start_ns:t0
        ~dur_ns:(Stdx.Clock.now_ns () -. t0)
        ();
      resp)

let run_batch ctx jobs =
  let view = Obs.Trace.with_span "encrypted_db.freeze" (fun () -> Wre.Encrypted_db.freeze ctx.primary) in
  let out =
    Stdx.Task_pool.parallel_init ctx.pool (Array.length jobs) (fun i ->
        statement jobs.(i) (Wre.Proxy.execute_snapshot ~view ctx.proxy))
  in
  after ctx (Array.length jobs);
  out

let run_write ctx j =
  let r = statement j (Wre.Proxy.execute ctx.proxy) in
  after ctx 1;
  r

let create store =
  let edbs =
    List.map (fun n -> Option.get (Store.Engine.encrypted store n)) (Store.Engine.encrypted_names store)
  in
  let d = Server.Daemon.default_config ~socket_path:"" in
  {
    proxy = Wre.Proxy.create_multi edbs;
    primary = List.hd edbs;
    pool = Stdx.Task_pool.create ~domains:d.domains;
    spans = [];
    jsonl = Buffer.create 4096;
    undrained = 0;
  }

(* Replay [inp]'s statement lists through an admission queue with the
   daemon's default window and batch_max, tracing the measured phase
   (not the warm-up). *)
let run ctx (inp : Inputs.t) ~seconds ~budget =
  let d = Server.Daemon.default_config ~socket_path:"" in
  let adm =
    Server.Admission.create ~window_ns:d.window_ns ~batch_max:d.batch_max ~run_batch:(run_batch ctx)
      ~run_write:(run_write ctx)
      ~on_exn:(fun m -> Server.Wire.Failed { message = m })
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Admission.stop adm;
      Obs.Trace.set_enabled false;
      drain ctx)
  @@ fun () ->
  let query (st : Inputs.stmt) =
    let kind = if Inputs.is_read st.op then Server.Admission.Read else Server.Admission.Mutate in
    match Server.Admission.submit adm kind { st; submit_ns = Stdx.Clock.now_ns () } with
    | Server.Wire.Result p -> Ok p
    | Server.Wire.Failed { message } -> Error message
    | _ -> Error "unexpected reply"
  in
  let start () =
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  in
  Wire_run.drive inp ~connect:(fun () -> Ok (query, ignore)) ~seconds ~budget ~on_start:start

let stop ctx = Stdx.Task_pool.shutdown ctx.pool

(* ---------------- what the spans say ---------------- *)

(* One traced statement: its class and, per span name below it, the
   summed duration (ns), the number of such spans (under "NAME#") and
   the summed numeric attributes (under "NAME.ATTR"). [direct] holds
   the durations of proxy.execute's own children, by name. *)
type stmt_spans = {
  op : string;
  dur : (string, float) Hashtbl.t;
  attr : (string, float) Hashtbl.t;
  direct : (string, float) Hashtbl.t;
}

let get h k = Option.value ~default:0.0 (Hashtbl.find_opt h k)
let add h k v = Hashtbl.replace h k (get h k +. v)
let direct_total st = Hashtbl.fold (fun _ v acc -> acc +. v) st.direct 0.0

(* Group the drained spans by the statement they belong to; spans
   outside any statement (the per-batch freeze) go to [batch]. *)
let by_statement (spans : Obs.Trace.span list) =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec owner (s : Obs.Trace.span) =
    if s.name = "replica.statement" then Some s
    else Option.bind (Option.bind s.parent (Hashtbl.find_opt by_id)) owner
  in
  let stmts = Hashtbl.create 1024 in
  let fresh op = { op; dur = Hashtbl.create 16; attr = Hashtbl.create 8; direct = Hashtbl.create 8 } in
  let batch = fresh "" in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let st =
        match owner s with
        | None -> batch
        | Some o -> (
            match Hashtbl.find_opt stmts o.id with
            | Some st -> st
            | None ->
                let st = fresh (Option.value ~default:"" (List.assoc_opt "op" o.attrs)) in
                Hashtbl.replace stmts o.id st;
                st)
      in
      add st.dur s.name s.dur_ns;
      add st.dur (s.name ^ "#") 1.0;
      List.iter
        (fun (k, v) -> Option.iter (add st.attr (s.name ^ "." ^ k)) (float_of_string_opt v))
        s.attrs;
      match Option.bind s.parent (Hashtbl.find_opt by_id) with
      | Some p when p.name = "proxy.execute" -> add st.direct s.name s.dur_ns
      | _ -> ())
    spans;
  (List.of_seq (Hashtbl.to_seq_values stmts), batch)

(* ---------------- the counting pass ---------------- *)

let rec tokens = function
  | Predicate.In (_, vs) -> List.length vs
  | Predicate.Eq _ | Predicate.Range _ -> 1
  | Predicate.And ps | Predicate.Or ps -> List.fold_left (fun n p -> n + tokens p) 0 ps
  | Predicate.Not p -> tokens p
  | Predicate.True -> 0

(* Per read class: "stmts", "tokens" shipped, "traversals" taken, and
   for SELECTs "probe_ns", the executor's index probe alone — the
   rewritten predicate run with Row_ids, which the server's All_columns
   run then extends with the heap fetch. Each distinct read statement
   [rounds] times, untraced, outside the replay. *)
let count_reads ctx (inp : Inputs.t) ~rounds =
  let out = Hashtbl.create 8 in
  let stmts = List.concat_map Inputs.reads (Array.to_list inp.conns) in
  for _ = 1 to rounds do
    let view = Wre.Encrypted_db.freeze ctx.primary in
    List.iter
      (fun (st : Inputs.stmt) ->
        let cls = Inputs.op_name st.op in
        let bump k v = add out (k, cls) v in
        bump "stmts" 1.0;
        match Sql.parse st.sql with
        | Ok (Sql.Select s) -> (
            match Wre.Proxy.rewrite_select ctx.proxy s with
            | Error _ -> ()
            | Ok rw ->
                let server = rw.Wre.Proxy.server_predicate in
                let cover = Wre.Proxy.range_cover_for ctx.proxy ~table:s.table s.where in
                bump "tokens"
                  (float_of_int (match cover with Some (_, roots) -> Array.length roots | None -> tokens server));
                bump "traversals" (if cover = None then 0.0 else 1.0);
                let probe () =
                  match cover with
                  | Some (col, roots) ->
                      Executor.run_traverse view
                        ~tree:(Wre.Encrypted_db.range_tree ctx.primary col)
                        ~tag_column:(Wre.Encrypted_db.rtag_column col)
                        ~roots ~projection:Executor.Row_ids server
                  | None -> Executor.run_view view ~projection:Executor.Row_ids server
                in
                bump "probe_ns" (snd (Stdx.Clock.time_it probe));
                bump "selects" 1.0)
        | Ok (Sql.Select_join j) -> (
            match Wre.Proxy.rewrite_join ctx.proxy j with
            | Error _ -> ()
            | Ok buckets ->
                bump "tokens"
                  (float_of_int (Array.fold_left (fun n (_, l, r) -> n + List.length l + List.length r) 0 buckets)))
        | Ok _ | Error _ -> ())
      stmts
  done;
  out
