let m_appends = Obs.Metrics.counter "store.wal_appends_total"
let m_fsyncs = Obs.Metrics.counter "store.wal_fsyncs_total"

type t = {
  file : Io.file;
  group_commit : int;
  mutable next_lsn : int64;
  mutable pending : int;  (* appends since the last fsync *)
}

let create ~path ~group_commit ~next_lsn =
  if group_commit < 1 then invalid_arg "Wal.create: group_commit must be >= 1";
  { file = Io.open_append path; group_commit; next_lsn; pending = 0 }

let lsn_bytes lsn =
  let b = Buffer.create 8 in
  Codec.put_u64 b lsn;
  Buffer.contents b

let frame lsn payload =
  let b = Buffer.create (16 + String.length payload) in
  Codec.put_u32 b (String.length payload);
  Codec.put_u64 b lsn;
  let crc = Crc32.update (Crc32.digest (lsn_bytes lsn)) payload in
  Codec.put_u32 b (Int32.to_int crc land 0xFFFFFFFF);
  Buffer.contents b ^ payload

let sync t =
  if t.pending > 0 then begin
    Io.fsync ~point:"wal.fsync" t.file;
    Obs.Metrics.incr m_fsyncs;
    t.pending <- 0
  end

let append t payload =
  let lsn = t.next_lsn in
  t.next_lsn <- Int64.add lsn 1L;
  Io.write ~point:"wal.write" t.file (frame lsn payload);
  Obs.Metrics.incr m_appends;
  t.pending <- t.pending + 1;
  if t.pending >= t.group_commit then sync t;
  lsn

let reset t =
  Io.truncate t.file 0;
  Io.fsync ~point:"wal.fsync" t.file;
  t.pending <- 0

let truncate_to t n =
  Io.truncate t.file n;
  Io.fsync ~point:"wal.fsync" t.file;
  t.pending <- 0

let next_lsn t = t.next_lsn
let size t = Io.size t.file
let close t = Io.close t.file

(* Frames are checked and handed over in place: [f] gets the file's
   bytes and the payload's offset and length, so no byte is copied. *)
let replay_in_place ~path f =
  match Io.read_file path with
  | None -> (0L, 0)
  | Some data ->
      let len = String.length data in
      let c = Codec.cursor data in
      (* The next intact frame's LSN and payload offset and length, or
         [None] at a torn or corrupt tail. The CRC covers the LSN bytes
         (offset 4 of the frame) and the payload. *)
      let next () =
        try
          let start = Codec.pos c in
          if start + 16 > len then raise Exit;
          let plen = Codec.get_u32 c in
          let lsn = Codec.get_u64 c in
          let crc = Int32.of_int (Codec.get_u32 c) in
          let off = Codec.pos c in
          if plen > len - off then raise Exit;
          if Crc32.update_sub (Crc32.update_sub 0l data (start + 4) 8) data off plen <> crc then
            raise Exit;
          Codec.skip c plen;
          Some (lsn, off, plen)
        with Exit | Codec.Corrupt _ -> None
      in
      (* [f] runs outside the tail check: a whole frame that [f] cannot
         decode (a record kind from a newer build) raises instead of
         ending the log, which the opener would then truncate. *)
      let rec loop max_lsn valid =
        match next () with
        | None -> (max_lsn, valid)
        | Some (lsn, off, plen) ->
            f lsn data ~off ~len:plen;
            loop lsn (Codec.pos c)
      in
      loop 0L 0

let replay ~path f =
  replay_in_place ~path (fun lsn data ~off ~len -> f lsn (String.sub data off len))
