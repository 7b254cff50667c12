type t = {
  last_lsn : int64;
  tables : Sqldb.Table.snapshot list;
  wre : Record.wre_config list;
}

exception Corrupt_snapshot of string

(* Format 2: streamed body. WRESNAP1 put a whole-body CRC in the
   header, which forced the writer to materialize the entire body in
   memory before the first byte hit disk — at 10M rows that is the
   whole database twice over. V2 writes [magic | body | u32 crc]: the
   CRC is computed incrementally while the body streams out through a
   bounded buffer and lands in a footer. The atomic tmp-rename publish
   is unchanged, so a torn write still leaves the old snapshot.

   Format 3 drops what format 2 stored for the modeled clock and the
   row-format baseline, now a constant and computed on demand: the
   pager cost model after the LSN (a u32 and four floats, 36 bytes)
   and three row-model integers per table (16 bytes). Format 2 still
   loads, skipping those fields. *)
let magic = "WRESNAP3"
let magic_v2 = "WRESNAP2"
let v2_cost_model_bytes = 36

let path ~dir = Filename.concat dir "snapshot.bin"
let wal_path ~dir = Filename.concat dir "wal.bin"

(* Bounded spill buffer: the serializers' [flush] hooks drain it to the
   file once it crosses the threshold, folding the bytes into the
   running CRC on the way out. *)
type sink = { file : Io.file; buf : Buffer.t; mutable crc : int32 }

let flush_threshold = 256 * 1024

let sink_drain s =
  if Buffer.length s.buf > 0 then begin
    let chunk = Buffer.contents s.buf in
    Buffer.clear s.buf;
    s.crc <- Crc32.update s.crc chunk;
    Io.write ~point:"snapshot.write" s.file chunk
  end

let sink_flush s = if Buffer.length s.buf >= flush_threshold then sink_drain s

(* The checkpoint path: stream straight from frozen views, so no
   snapshot record (rows × columns of boxed values) is ever
   materialized — peak memory is the spill buffer. *)
let write_views ~dir ~last_lsn ~views ~wre =
  let dst = path ~dir in
  let tmp = dst ^ ".tmp" in
  let f = Io.open_trunc tmp in
  Io.write ~point:"snapshot.write" f magic;
  let s = { file = f; buf = Buffer.create (flush_threshold + 4096); crc = Crc32.digest "" } in
  Codec.put_u64 s.buf last_lsn;
  Codec.put_u32 s.buf (List.length views);
  List.iter (Codec.put_table_view ~flush:(fun () -> sink_flush s) s.buf) views;
  Codec.put_u32 s.buf (List.length wre);
  List.iter (Record.put_wre_config s.buf) wre;
  sink_drain s;
  let footer = Buffer.create 4 in
  Codec.put_u32 footer (Int32.to_int s.crc land 0xFFFFFFFF);
  Io.write ~point:"snapshot.write" f (Buffer.contents footer);
  Io.fsync ~point:"snapshot.fsync" f;
  Io.close f;
  Io.rename ~point:"snapshot.rename" tmp dst;
  Io.fsync_dir ~point:"dir.fsync" dir

(* The body is decoded where it lies in the file's bytes, bounded by
   the footer. *)
let decode_body ~legacy data ~off ~len =
  let c = Codec.cursor ~off ~len data in
  let last_lsn = Codec.get_u64 c in
  if legacy then Codec.skip c v2_cost_model_bytes;
  let get_table = if legacy then Codec.get_table_snapshot_v2 else Codec.get_table_snapshot in
  let n_tables = Codec.get_u32 c in
  let tables = List.init n_tables (fun _ -> get_table c) in
  let n_wre = Codec.get_u32 c in
  let wre = List.init n_wre (fun _ -> Record.get_wre_config c) in
  if not (Codec.at_end c) then raise (Codec.Corrupt "trailing bytes after snapshot");
  { last_lsn; tables; wre }

let load ~dir =
  match Io.read_file (path ~dir) with
  | None -> None
  | Some data -> (
      let n = String.length data in
      let m = if n < 12 then "" else String.sub data 0 8 in
      if m <> magic && m <> magic_v2 then raise (Corrupt_snapshot "bad magic");
      let legacy = m = magic_v2 in
      let off = 8 and len = n - 12 in
      let crc = Codec.get_u32 (Codec.cursor ~off:(n - 4) data) in
      if Int32.to_int (Crc32.update_sub 0l data off len) land 0xFFFFFFFF <> crc then
        raise (Corrupt_snapshot "checksum mismatch");
      try Some (decode_body ~legacy data ~off ~len) with Codec.Corrupt e -> raise (Corrupt_snapshot e))
