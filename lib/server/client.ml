type t = {
  fd : Unix.file_descr;
  session_id : int64;
  tables : string list;
  closed : bool Atomic.t;
}

let recv fd =
  match Wire.recv_response fd with
  | Ok r -> Ok r
  | Error `Eof -> Error "server closed the connection"
  | Error (`Err e) -> Error (Wire.error_string e)

let rpc fd req =
  match Wire.send_request fd req with
  | Ok () -> recv fd
  | Error e -> Error ("request " ^ Wire.error_string e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let connect ?(client_name = "wre_client") ~socket_path () =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Printf.sprintf "connect %s: %s" socket_path (Unix.error_message e))
  | () -> (
      match rpc fd (Wire.Hello { client = client_name }) with
      | Ok (Wire.Welcome { session_id; tables; _ }) ->
          Ok { fd; session_id; tables; closed = Atomic.make false }
      | Ok (Wire.Failed { message }) ->
          Unix.close fd;
          Error message
      | Ok _ ->
          Unix.close fd;
          Error "unexpected response to Hello"
      | Error e ->
          Unix.close fd;
          Error e)

let session_id t = t.session_id
let tables t = t.tables

let query t sql =
  match rpc t.fd (Wire.Query { sql }) with
  | Ok (Wire.Result p) -> Ok p
  | Ok (Wire.Failed { message }) -> Error message
  | Ok _ -> Error "unexpected response to Query"
  | Error e -> Error e

let ping t =
  match rpc t.fd Wire.Ping with
  | Ok Wire.Pong -> Ok ()
  | Ok _ -> Error "unexpected response to Ping"
  | Error e -> Error e

let stats t =
  match rpc t.fd Wire.Stats with
  | Ok (Wire.Stats_reply { text }) -> Ok text
  | Ok _ -> Error "unexpected response to Stats"
  | Error e -> Error e

let close t =
  if not (Atomic.exchange t.closed true) then (
    (match rpc t.fd Wire.Quit with Ok _ | Error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ())
