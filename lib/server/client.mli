(** Blocking client for {!Daemon}: one socket, one outstanding request.

    Used by [wre_cli connect], the protocol tests and the [exp_server]
    closed-loop benchmark clients. Any protocol violation from the
    server surfaces as [Error _]; the connection should then be
    {!close}d. *)

type t

val connect : ?client_name:string -> socket_path:string -> unit -> (t, string) result
(** Connect and complete the [Hello]/[Welcome] handshake. *)

val session_id : t -> int64
val tables : t -> string list
(** Encrypted tables announced by the server's [Welcome]. *)

val query : t -> string -> (Wire.result_payload, string) result
(** Send one SQL statement, block for its result. A server-side
    [Failed] reply becomes [Error message]. A statement too large for
    one frame ({!Wire.max_frame}) is an [Error] before anything is
    written; the session stays usable. *)

val ping : t -> (unit, string) result
val stats : t -> (string, string) result

val close : t -> unit
(** Best-effort [Quit]/[Bye], then close the socket. Idempotent. *)
