(** The server's wire protocol: length-prefixed, CRC-checksummed
    frames over a byte stream (Unix-domain sockets in practice).

    Framing follows the {!Store.Wal} discipline — reject garbage before
    interpreting it. Every frame is

    {v magic:u32 "WRE1" | len:u32 | crc32(payload):u32 | payload v}

    little-endian, with [len <= max_frame]. A receiver validates the
    magic preamble, the length bound (a "negative" 32-bit length
    decodes as huge and fails the same check, before any allocation)
    and the payload CRC, in that order; message payloads are decoded
    with {!Store.Codec} and reject trailing bytes, unknown tags, and
    element counts exceeding the bytes present. Any of these failures
    is an {!error}, never an exception — a server rejects the session
    cleanly and keeps serving the others. Senders hold themselves to
    the same length bound (see {!send_request}, {!send_response}). *)

val magic : int
val header_bytes : int

val max_frame : int
(** Upper bound on payload length (16 MiB). *)

type error =
  | Bad_magic  (** preamble is not ["WRE1"] — garbage or desynced stream *)
  | Oversized of int  (** length prefix out of bounds (incl. negative-as-u32) *)
  | Bad_crc
  | Malformed of string  (** payload decodes to no valid message *)

val error_string : error -> string

type request =
  | Hello of { client : string }
  | Query of { sql : string }  (** plaintext SQL for the rewriting proxy *)
  | Ping
  | Stats  (** dump the server's metrics registry *)
  | Quit

type result_payload = {
  columns : string list;
  rows : Sqldb.Value.t array list;  (** decrypted, residual-filtered, projected *)
  affected : int;
  server_rows : int;  (** rows the server-side executor returned (incl. FPs) *)
}

type response =
  | Welcome of { session_id : int64; server : string; tables : string list }
  | Result of result_payload
  | Failed of { message : string }
  | Pong
  | Stats_reply of { text : string }
  | Bye

(** {2 Framing} *)

val frame : string -> string
(** Wrap a payload in a checked frame: one allocation, one copy of the
    payload. It does not check {!max_frame}; the senders below do. *)

val parse_header : string -> (int * int, error) result
(** Validate the 12 header bytes: [Ok (payload_len, crc)]. *)

val check_payload : crc:int -> string -> (unit, error) result

(** {2 Message payloads} *)

val encode_request : request -> string
val decode_request : string -> (request, error) result
val encode_response : response -> string
val decode_response : string -> (response, error) result

(** {2 Blocking stream I/O}

    Built on {!Store.Io}'s hardened descriptor primitives, so
    interrupted syscalls (the signal-handling server's steady state)
    are retried, never surfaced as protocol errors. *)

val send_request : Unix.file_descr -> request -> (unit, error) result
(** Frame and write a request. One whose payload exceeds {!max_frame}
    is refused as [Oversized] and nothing is written, so the stream
    stays in step. *)

type encoder
(** One session's reply buffers, reused across its replies while they
    stay at most 256 KiB; a larger reply gets fresh buffers that are
    dropped after it. Owned by one thread at a time. *)

val encoder : unit -> encoder

val frame_response : encoder -> response -> Bytes.t * int
(** [(b, n)]: the first [n] bytes of [b] are the response's frame,
    byte for byte [frame (encode_response r)], encoded and checksummed
    in the encoder's buffers. They stay valid until the encoder's next
    reply. One whose payload exceeds {!max_frame} is framed as [Failed],
    its message naming the size and the limit — the peer would reject
    the oversized frame and lose its place in the stream. *)

val send_response : encoder -> Unix.file_descr -> response -> unit
(** {!frame_response}, then write the frame. *)

val recv_request : Unix.file_descr -> (request, [ `Eof | `Err of error ]) result
(** [`Eof] at a clean frame boundary, or when the peer reset the
    connection; mid-frame EOF is [`Err (Malformed _)]. *)

val recv_response : Unix.file_descr -> (response, [ `Eof | `Err of error ]) result
