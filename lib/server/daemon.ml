(* lint: guarded-by lock — the session registry and sid counter are
   only touched with [lock] held; cross-thread shutdown is signalled
   through the [stopping] atomic. *)

let server_name = "wre_server/1"

let m_sessions = Obs.Metrics.counter "server.sessions_total"
let m_active = Obs.Metrics.gauge "server.sessions_active"
let m_requests = Obs.Metrics.counter "server.requests_total"
let m_rejected = Obs.Metrics.counter "server.frames_rejected_total"

type config = {
  socket_path : string;
  domains : int;
  window_ns : float;
  batch_max : int;
  backlog : int;
}

let default_config ~socket_path =
  { socket_path; domains = 4; window_ns = 1e6; batch_max = 256; backlog = 128 }

(* A job is one decoded Query plus the session's proxy; the reply is a
   ready-to-send wire response. *)
type job = Wre.Proxy.t * string

type t = {
  cfg : config;
  engine : Store.Engine.t;
  edbs : Wre.Encrypted_db.t list;  (** every encrypted table in the store; head is primary *)
  pool : Stdx.Task_pool.t;
  adm : (job, Wire.response) Admission.t;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;
  lock : Mutex.t;
  sessions : (int64, Unix.file_descr) Hashtbl.t;
      (** live sessions only: each one removes itself when it ends *)
  session_ended : Condition.t;  (** signalled under [lock] when a session leaves [sessions] *)
  mutable next_sid : int64;
  mutable accept_thread : Thread.t option;
}

let response_of_result = function
  | Ok (q : Wre.Proxy.query_result) ->
      Wire.Result
        { Wire.columns = q.columns; rows = q.rows; affected = q.affected; server_rows = q.server_rows }
  | Error m -> Wire.Failed { message = m }

(* Execute one coalesced read batch: freeze the epoch once, fan the
   queries over the pool. *)
let run_read_batch pool edbs payloads =
  (* Freeze the primary table's epoch once for the whole batch; queries
     on other tables (and joins, which freeze their own pair) fall back
     to a per-query freeze inside the proxy. *)
  let view = Wre.Encrypted_db.freeze (List.hd edbs) in
  Stdx.Task_pool.parallel_init pool (Array.length payloads) (fun i ->
      let proxy, sql = payloads.(i) in
      response_of_result (Wre.Proxy.execute_snapshot ~view proxy sql))

let run_mutation (proxy, sql) = response_of_result (Wre.Proxy.execute proxy sql)

let classify sql =
  match Sqldb.Sql.parse sql with
  (* A join is one read job: it freezes its own epoch-consistent pair
     of views inside the batch, like any other snapshot read. *)
  | Ok (Sqldb.Sql.Select _ | Sqldb.Sql.Select_join _) -> Ok Admission.Read
  | Ok _ -> Ok Admission.Mutate
  | Error e -> Error e

let handle_request t sid proxy req =
  Obs.Metrics.incr m_requests;
  match req with
  | Wire.Hello _ ->
      Some
        (Wire.Welcome
           {
             session_id = sid;
             server = server_name;
             tables = Store.Engine.encrypted_names t.engine;
           })
  | Wire.Ping -> Some Wire.Pong
  | Wire.Stats -> Some (Wire.Stats_reply { text = Obs.Metrics.render () })
  | Wire.Quit -> None
  | Wire.Query { sql } ->
      Some
        (match classify sql with
        | Error e -> Wire.Failed { message = e }
        | Ok kind -> (
            match Admission.submit t.adm kind (proxy, sql) with
            | r -> r
            | exception Invalid_argument _ -> Wire.Failed { message = "server is shutting down" }))

let rec session_loop t sid proxy enc fd =
  match Wire.recv_request fd with
  | Error `Eof -> ()
  | Error (`Err e) ->
      (* Reject this session only; a best-effort explanation, then
         close. Everyone else keeps being served. *)
      Obs.Metrics.incr m_rejected;
      (try Wire.send_response enc fd (Wire.Failed { message = Wire.error_string e })
       with Unix.Unix_error _ -> ())
  | Ok req -> (
      match handle_request t sid proxy req with
      | None -> ( try Wire.send_response enc fd Wire.Bye with Unix.Unix_error _ -> ())
      | Some resp -> (
          match Wire.send_response enc fd resp with
          | () -> session_loop t sid proxy enc fd
          | exception Unix.Unix_error _ -> ()))

let run_session t sid fd =
  Fun.protect
    ~finally:(fun () ->
      (* Remove-then-close under the registry lock, so [stop]'s
         shutdown sweep can never hit a recycled descriptor. *)
      Mutex.lock t.lock;
      Hashtbl.remove t.sessions sid;
      Obs.Metrics.set_gauge m_active (Hashtbl.length t.sessions);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Condition.broadcast t.session_ended;
      Mutex.unlock t.lock)
    (fun () ->
      let proxy = Wre.Proxy.create_multi t.edbs in
      try session_loop t sid proxy (Wire.encoder ()) fd with Unix.Unix_error _ -> ())

let accept_loop t =
  let running = ref true in
  while !running do
    match Unix.accept ~cloexec:true t.listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if Atomic.get t.stopping then running := false
    | exception Unix.Unix_error _ -> if Atomic.get t.stopping then running := false
    | fd, _ ->
        if Atomic.get t.stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          running := false)
        else (
          Mutex.lock t.lock;
          let sid = t.next_sid in
          t.next_sid <- Int64.add t.next_sid 1L;
          Hashtbl.replace t.sessions sid fd;
          Obs.Metrics.incr m_sessions;
          Obs.Metrics.set_gauge m_active (Hashtbl.length t.sessions);
          ignore (Thread.create (fun () -> run_session t sid fd) () : Thread.t);
          Mutex.unlock t.lock)
  done

let start cfg engine =
  (* Validate before binding anything: a refused config leaves no socket
     file, listener or worker domains behind. *)
  match (cfg.batch_max, Store.Engine.encrypted_names engine) with
  | n, _ when n < 1 -> Error (Printf.sprintf "batch_max must be at least 1 (got %d)" n)
  | _, [] -> Error "store has no encrypted tables to serve"
  | _, names ->
      let edbs = List.map (fun n -> Option.get (Store.Engine.encrypted engine n)) names in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path) with
      | () -> ()
      | exception e ->
          Unix.close listener;
          raise e);
      Unix.listen listener cfg.backlog;
      let pool = Stdx.Task_pool.create ~domains:(max 1 cfg.domains) in
      let adm =
        Admission.create ~window_ns:cfg.window_ns ~batch_max:cfg.batch_max
          ~run_batch:(run_read_batch pool edbs) ~run_write:run_mutation
          ~on_exn:(fun m -> Wire.Failed { message = m })
          ()
      in
      let t =
        {
          cfg;
          engine;
          edbs;
          pool;
          adm;
          listener;
          stopping = Atomic.make false;
          lock = Mutex.create ();
          sessions = Hashtbl.create 64;
          session_ended = Condition.create ();
          next_sid = 1L;
          accept_thread = None;
        }
      in
      t.accept_thread <- Some (Thread.create accept_loop t);
      Ok t

let socket_path t = t.cfg.socket_path

let stop t =
  if not (Atomic.exchange t.stopping true) then (
    (* Wake the blocked accept with a throwaway connection, then join
       it before touching the listener. *)
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path) with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with
    | Some th ->
        Thread.join th;
        t.accept_thread <- None
    | None -> ());
    (* Kick every live session off its blocking read, then wait for the
       registry to empty: each session thread closes its own fd and
       removes itself on the way out. *)
    Mutex.lock t.lock;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.sessions;
    while Hashtbl.length t.sessions > 0 do
      Condition.wait t.session_ended t.lock
    done;
    Mutex.unlock t.lock;
    Admission.stop t.adm;
    Stdx.Task_pool.shutdown t.pool;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
