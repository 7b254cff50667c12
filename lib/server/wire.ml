(* lint: guarded-by the session thread that owns the encoder — an
   [encoder]'s buffers are reused across one session's replies, and
   only that session's thread ever touches them. *)

(* Length-prefixed, CRC-checksummed wire frames over a byte stream,
   following the Store.Wal framing discipline: a fixed header carries a
   magic preamble, the payload length and the payload's CRC-32, so a
   receiver can reject garbage, truncation and corruption before ever
   interpreting a byte of payload. Message payloads reuse Store.Codec's
   little-endian primitives — rows travel in exactly the bytes a WAL
   record would use. *)

module Codec = Store.Codec
module Crc32 = Store.Crc32

let magic = 0x31455257 (* the bytes "WRE1" once put_u32's little-endian order lands them *)
let header_bytes = 12
let max_frame = 16 * 1024 * 1024

type error = Bad_magic | Oversized of int | Bad_crc | Malformed of string

let error_string = function
  | Bad_magic -> "bad magic (not a WRE1 frame)"
  | Oversized n -> Printf.sprintf "frame length %d exceeds limit %d" n max_frame
  | Bad_crc -> "payload checksum mismatch"
  | Malformed m -> Printf.sprintf "malformed payload: %s" m

type request =
  | Hello of { client : string }
  | Query of { sql : string }
  | Ping
  | Stats
  | Quit

type result_payload = {
  columns : string list;
  rows : Sqldb.Value.t array list;
  affected : int;
  server_rows : int;
}

type response =
  | Welcome of { session_id : int64; server : string; tables : string list }
  | Result of result_payload
  | Failed of { message : string }
  | Pong
  | Stats_reply of { text : string }
  | Bye

(* ---------------- framing ---------------- *)

let crc_int payload = Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF

(* Header and payload go straight into the one buffer that is sent: the
   payload is copied once, and the little-endian words are the bytes
   [Codec.put_u32] would write. *)
let set_header b len crc =
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_int32_le b 4 (Int32.of_int len);
  Bytes.set_int32_le b 8 crc

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  set_header b len (Crc32.digest payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

let parse_header h =
  if String.length h < header_bytes then Error (Malformed "truncated header")
  else
    let c = Codec.cursor h in
    let m = Codec.get_u32 c in
    if m <> magic then Error Bad_magic
    else
      let len = Codec.get_u32 c in
      let crc = Codec.get_u32 c in
      (* A 32-bit length with the high bit set decodes as a huge
         positive int here — "negative" and oversized prefixes fail the
         same bound, before any allocation. *)
      if len > max_frame then Error (Oversized len) else Ok (len, crc)

let check_payload ~crc payload = if crc_int payload = crc then Ok () else Error Bad_crc

(* ---------------- payload codec ---------------- *)

(* Element counts are bounded by the bytes actually present, so a
   corrupt count fails immediately instead of driving a giant loop. *)
let get_count c ~per =
  let n = Codec.get_u32 c in
  if per > 0 && n > Codec.remaining c / per then
    raise (Codec.Corrupt (Printf.sprintf "count %d larger than remaining payload" n));
  n

let put_strings b l =
  Codec.put_u32 b (List.length l);
  List.iter (Codec.put_str b) l

let get_strings c = List.init (get_count c ~per:4) (fun _ -> Codec.get_str c)

let put_rows b rows =
  Codec.put_u32 b (List.length rows);
  List.iter (Codec.put_row b) rows

let get_rows c = List.init (get_count c ~per:4) (fun _ -> Codec.get_row c)

let encode_request r =
  let b = Buffer.create 64 in
  (match r with
  | Hello { client } ->
      Codec.put_u8 b 1;
      Codec.put_str b client
  | Query { sql } ->
      Codec.put_u8 b 2;
      Codec.put_str b sql
  | Ping -> Codec.put_u8 b 3
  | Stats -> Codec.put_u8 b 4
  | Quit -> Codec.put_u8 b 5);
  Buffer.contents b

let decode payload read_one =
  match
    let c = Codec.cursor payload in
    let r = read_one c in
    if not (Codec.at_end c) then raise (Codec.Corrupt "trailing bytes after message");
    r
  with
  | r -> Ok r
  | exception Codec.Corrupt m -> Error (Malformed m)

let decode_request payload =
  decode payload (fun c ->
      match Codec.get_u8 c with
      | 1 -> Hello { client = Codec.get_str c }
      | 2 -> Query { sql = Codec.get_str c }
      | 3 -> Ping
      | 4 -> Stats
      | 5 -> Quit
      | t -> raise (Codec.Corrupt (Printf.sprintf "unknown request tag %d" t)))

let put_response b r =
  match r with
  | Welcome { session_id; server; tables } ->
      Codec.put_u8 b 1;
      Codec.put_u64 b session_id;
      Codec.put_str b server;
      put_strings b tables
  | Result p ->
      Codec.put_u8 b 2;
      put_strings b p.columns;
      put_rows b p.rows;
      Codec.put_u32 b p.affected;
      Codec.put_u32 b p.server_rows
  | Failed { message } ->
      Codec.put_u8 b 3;
      Codec.put_str b message
  | Pong -> Codec.put_u8 b 4
  | Stats_reply { text } ->
      Codec.put_u8 b 5;
      Codec.put_str b text
  | Bye -> Codec.put_u8 b 6

let encode_response r =
  let b = Buffer.create 256 in
  put_response b r;
  Buffer.contents b

let decode_response payload =
  decode payload (fun c ->
      match Codec.get_u8 c with
      | 1 ->
          let session_id = Codec.get_u64 c in
          let server = Codec.get_str c in
          let tables = get_strings c in
          Welcome { session_id; server; tables }
      | 2 ->
          let columns = get_strings c in
          let rows = get_rows c in
          let affected = Codec.get_u32 c in
          let server_rows = Codec.get_u32 c in
          Result { columns; rows; affected; server_rows }
      | 3 -> Failed { message = Codec.get_str c }
      | 4 -> Pong
      | 5 -> Stats_reply { text = Codec.get_str c }
      | 6 -> Bye
      | t -> raise (Codec.Corrupt (Printf.sprintf "unknown response tag %d" t)))

(* ---------------- blocking stream I/O ---------------- *)

let really_read fd buf len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Store.Io.read_fd fd buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let recv_payload fd =
  match
    let hdr = Bytes.create header_bytes in
    match really_read fd hdr header_bytes with
    | 0 -> Error `Eof
    | n when n < header_bytes -> Error (`Err (Malformed "truncated header"))
    | _ -> (
        (* Both buffers are fresh and never written again once read, so
           they become strings without a copy. *)
        match parse_header (Bytes.unsafe_to_string hdr) with
        | Error e -> Error (`Err e)
        | Ok (len, crc) ->
            let payload = Bytes.create len in
            if really_read fd payload len < len then Error (`Err (Malformed "truncated frame"))
            else
              let payload = Bytes.unsafe_to_string payload in
              (match check_payload ~crc payload with
              | Error e -> Error (`Err e)
              | Ok () -> Ok payload))
  with
  | r -> r
  (* A peer that dies with bytes still queued resets the connection
     rather than half-closing it; for the protocol that's the same
     story as EOF — the conversation is over. *)
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error `Eof

let lift_decode = function Ok r -> Ok r | Error e -> Error (`Err e)

let recv_request fd =
  match recv_payload fd with Error e -> Error e | Ok p -> lift_decode (decode_request p)

let recv_response fd =
  match recv_payload fd with Error e -> Error e | Ok p -> lift_decode (decode_response p)

(* The receiver rejects a frame over [max_frame] and leaves its payload
   unread, so the sender must never write one: the stream would be out
   of step from then on. *)
let send_request fd r =
  let payload = encode_request r in
  if String.length payload > max_frame then Error (Oversized (String.length payload))
  else Ok (Store.Io.write_fd_all fd (frame payload))

(* A session's reply encoder: the payload buffer and the frame bytes,
   reused from one reply to the next while they stay at most
   [keep_bytes], so a steady stream of replies allocates nothing. A
   larger reply gets fresh buffers, dropped once it is framed. *)
type encoder = { buf : Buffer.t; mutable frame : Bytes.t }

let keep_bytes = 256 * 1024
let encoder () = { buf = Buffer.create 256; frame = Bytes.create (header_bytes + 256) }

let frame_bytes enc total =
  if total <= Bytes.length enc.frame then enc.frame
  else if total > keep_bytes then Bytes.create total
  else begin
    enc.frame <- Bytes.create (max total (min keep_bytes (2 * Bytes.length enc.frame)));
    enc.frame
  end

let frame_response enc r =
  let b = enc.buf in
  Buffer.clear b;
  put_response b r;
  let n = Buffer.length b in
  if n > max_frame then begin
    Buffer.reset b;
    put_response b (Failed { message = "reply " ^ error_string (Oversized n) })
  end;
  let len = Buffer.length b in
  let f = frame_bytes enc (header_bytes + len) in
  Buffer.blit b 0 f header_bytes len;
  if len > keep_bytes then Buffer.reset b;
  (* [f] is not written again before the CRC returns. *)
  set_header f len (Crc32.update_sub 0l (Bytes.unsafe_to_string f) header_bytes len);
  (f, header_bytes + len)

let send_response enc fd r =
  let f, n = frame_response enc r in
  Store.Io.write_fd_bytes fd f 0 n
