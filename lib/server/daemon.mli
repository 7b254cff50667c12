(** Multi-client WRE proxy server over a Unix-domain socket.

    One accept thread, one session thread per connection, one
    {!Admission} batcher: concurrent SELECTs arriving within an
    admission window are coalesced into a single snapshot epoch — one
    {!Wre.Encrypted_db.freeze} per batch, fanned across a
    {!Stdx.Task_pool} with {!Wre.Proxy.execute_snapshot} — while
    INSERT/UPDATE/DELETE are serialized through the engine's normal
    WAL write path. Each session owns its own {!Wre.Proxy.t} (the
    per-session client state); the engine directory stays the single
    source of durability, so [kill -9] + reopen recovers every
    acknowledged write.

    Failure containment: a malformed or corrupt frame rejects {e that
    session} (best-effort [Failed] reply, then close) and bumps
    [server.frames_rejected_total]; other sessions keep being served.

    Metrics: [server.sessions_total], [server.sessions_active],
    [server.requests_total], [server.frames_rejected_total], plus the
    {!Admission} instruments. *)

type config = {
  socket_path : string;
  domains : int;  (** task-pool domains fanning each read batch *)
  window_ns : float;  (** admission window; 0 = no coalescing delay *)
  batch_max : int;  (** max reads coalesced into one epoch *)
  backlog : int;  (** listen(2) backlog *)
}

val default_config : socket_path:string -> config
(** domains = 4, window = 1 ms, batch_max = 256, backlog = 128. *)

type t

val start : config -> Store.Engine.t -> (t, string) result
(** Bind the socket (replacing a stale one), start the accept and
    batcher threads. [Error _], before anything is bound or started,
    if [batch_max < 1] or the store has no encrypted tables.
    The caller keeps ownership of the engine and closes it after
    {!stop}. Ignores [SIGPIPE] process-wide (a disconnecting client
    must not kill the server). *)

val socket_path : t -> string

val stop : t -> unit
(** Stop accepting, shut down every live session, drain queued jobs,
    join all threads and remove the socket file. Idempotent. *)
