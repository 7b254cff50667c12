open Sqldb

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* A cursor reads [s] from [p] up to [lim], the end of the substring
   it was made for: every reader goes through [need], so nothing past
   the bound is ever read. *)
type cursor = { s : string; mutable p : int; lim : int }

let cursor ?(off = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Codec.cursor";
  { s; p = off; lim = off + len }

let pos c = c.p
let remaining c = c.lim - c.p
let at_end c = c.p >= c.lim

let need c n = if n > c.lim - c.p then corrupt "truncated at byte %d (need %d)" c.p n

let skip c n =
  need c n;
  c.p <- c.p + n

(* Writers *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

(* Fixed-width integers go in as whole words; [Int32.of_int] keeps the
   low 32 bits, the same bytes a byte-at-a-time writer would emit. *)
let put_u32 b n =
  if n < 0 then corrupt "put_u32: negative";
  Buffer.add_int32_le b (Int32.of_int n)

let put_u64 b v = Buffer.add_int64_le b v

let put_bool b v = put_u8 b (if v then 1 else 0)
let put_float b v = put_u64 b (Int64.bits_of_float v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_value b v =
  match v with
  | Value.Null -> put_u8 b 0
  | Value.Int x ->
      put_u8 b 1;
      put_u64 b x
  | Value.Real x ->
      put_u8 b 2;
      put_float b x
  | Value.Text s ->
      put_u8 b 3;
      put_str b s
  | Value.Blob s ->
      put_u8 b 4;
      put_str b s

let put_row b row =
  put_u32 b (Array.length row);
  Array.iter (put_value b) row

let ty_code = function Value.TInt -> 0 | Value.TReal -> 1 | Value.TText -> 2 | Value.TBlob -> 3

let put_schema b schema =
  let cols = Schema.columns schema in
  put_u32 b (Array.length cols);
  Array.iter
    (fun (c : Schema.column) ->
      put_str b c.name;
      put_u8 b (ty_code c.ty);
      put_bool b c.nullable)
    cols

(* The index kind byte of WAL [Create_index] payloads, snapshot index
   entries and WRE configs. Every index is a B-tree, written as 0; a 1
   is a hash index from an older build and opens as the B-tree, since
   index contents are rebuilt from the heap on restore. *)
let put_index_kind b = put_u8 b 0

(* Little-endian fixed-width integers: dictionary ids and page numbers
   are stored at the narrowest width that fits their range (recorded
   elsewhere in the stream), which is what keeps a 10M-row checkpoint
   near the in-memory columnar size instead of 4-8 bytes per cell. *)
let put_fixed b width n =
  match width with
  | 1 -> put_u8 b n
  | 2 -> Buffer.add_uint16_le b (n land 0xFFFF)
  | _ -> Buffer.add_int32_le b (Int32.of_int n)

(* A table, serialized straight from a frozen view: cell by cell, with
   [flush] giving the sink a chance to spill the buffer, so the table is
   never materialized as one record. *)
let put_table_view ?(flush = fun () -> ()) b v =
  put_str b (Read_view.name v);
  put_schema b (Read_view.schema v);
  let n = Read_view.row_count v in
  let n_cols = Read_view.n_cols v in
  put_u32 b n;
  put_u32 b n_cols;
  for c = 0 to n_cols - 1 do
    let dict = Read_view.dict v ~col:c in
    let dict_len = Column_dict.frozen_len dict in
    put_u32 b dict_len;
    for i = 0 to dict_len - 1 do
      (* bit0 = entry present (not a vacuumed hole), bit1 = accounted *)
      (match Column_dict.frozen_entry dict i with
      | Some (value, accounted) ->
          put_u8 b (1 lor if accounted then 2 else 0);
          put_value b value
      | None -> put_u8 b 0);
      if i land 0xFF = 0xFF then flush ()
    done;
    put_u64 b (Int64.of_int (Column_dict.frozen_appends dict));
    put_bool b (Column_dict.frozen_intern_on dict);
    (* ids stored as id+1 (0 = reclaimed slot) at the narrowest width
       that fits the dictionary. *)
    let idw = Column_dict.width_for (dict_len + 1) in
    for id = 0 to n - 1 do
      put_fixed b idw (Read_view.col_id v ~col:c id + 1);
      if id land 0x1FFF = 0x1FFF then flush ()
    done;
    flush ()
  done;
  (* Visibility bitmap, packed. *)
  let byte = ref 0 in
  for id = 0 to n - 1 do
    if Read_view.is_live v id then byte := !byte lor (1 lsl (id land 7));
    if id land 7 = 7 then begin
      put_u8 b !byte;
      byte := 0
    end
  done;
  if n land 7 <> 0 then put_u8 b !byte;
  flush ();
  let cur_page = Read_view.cur_page v in
  put_u32 b cur_page;
  put_u32 b (Read_view.cur_fill v);
  let pw = Column_dict.width_for (cur_page + 1) in
  for id = 0 to n - 1 do
    put_fixed b pw (Read_view.row_page v id);
    if id land 0x1FFF = 0x1FFF then flush ()
  done;
  flush ();
  for id = 0 to n - 1 do
    put_u32 b (Read_view.row_size v id);
    if id land 0x1FFF = 0x1FFF then flush ()
  done;
  flush ();
  put_u64 b (Int64.of_int (Read_view.data_bytes v));
  put_u64 b (Int64.of_int (Read_view.live_bytes v));
  let indexes = Read_view.indexes v in
  put_u32 b (List.length indexes);
  List.iter
    (fun (col, _) ->
      put_str b col;
      put_index_kind b)
    indexes;
  flush ()

(* Readers *)

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.p] in
  c.p <- c.p + 1;
  v

let get_u16 c =
  need c 2;
  let v = String.get_uint16_le c.s c.p in
  c.p <- c.p + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.p) land 0xFFFFFFFF in
  c.p <- c.p + 4;
  v

let get_u64 c =
  need c 8;
  let v = String.get_int64_le c.s c.p in
  c.p <- c.p + 8;
  v

let get_bool c =
  match get_u8 c with 0 -> false | 1 -> true | n -> corrupt "bad bool %d" n

let get_float c = Int64.float_of_bits (get_u64 c)

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.s c.p n in
  c.p <- c.p + n;
  s

let get_value c =
  match get_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_u64 c)
  | 2 -> Value.Real (get_float c)
  | 3 -> Value.Text (get_str c)
  | 4 -> Value.Blob (get_str c)
  | n -> corrupt "bad value tag %d" n

let get_row c =
  let n = get_u32 c in
  if n > remaining c then corrupt "row arity %d exceeds input" n;
  Array.init n (fun _ -> get_value c)

let ty_of_code = function
  | 0 -> Value.TInt
  | 1 -> Value.TReal
  | 2 -> Value.TText
  | 3 -> Value.TBlob
  | n -> corrupt "bad type code %d" n

let get_schema c =
  let n = get_u32 c in
  if n > remaining c then corrupt "schema arity %d exceeds input" n;
  let cols =
    List.init n (fun _ ->
        let name = get_str c in
        let ty = ty_of_code (get_u8 c) in
        let nullable = get_bool c in
        { Schema.name; ty; nullable })
  in
  Schema.create cols

let get_index_kind c = match get_u8 c with 0 | 1 -> () | n -> corrupt "bad index kind %d" n

let get_fixed c width = match width with 1 -> get_u8 c | 2 -> get_u16 c | _ -> get_u32 c

(* WRESNAP2 tables carry three more integers after the live bytes —
   the row-format baseline's page cursor, fill and byte total (u32, u32,
   u64). The baseline is computed on demand, so they are skipped. *)
let get_table ~legacy c =
  let s_name = get_str c in
  let s_schema = get_schema c in
  let n = get_u32 c in
  if n > remaining c then corrupt "row count %d exceeds input" n;
  let n_cols = get_u32 c in
  if n_cols > remaining c then corrupt "column count %d exceeds input" n_cols;
  let s_cols =
    Array.init n_cols (fun _ ->
        let dict_len = get_u32 c in
        if dict_len > remaining c then corrupt "dictionary size %d exceeds input" dict_len;
        let cs_entries =
          Array.init dict_len (fun _ ->
              let flags = get_u8 c in
              if flags land 1 = 1 then Some (get_value c, flags land 2 = 2) else None)
        in
        let cs_appends = Int64.to_int (get_u64 c) in
        let cs_intern_on = get_bool c in
        let idw = Column_dict.width_for (dict_len + 1) in
        let cs_ids =
          Array.init n (fun _ ->
              let v = get_fixed c idw - 1 in
              if v >= dict_len then corrupt "dictionary id %d out of range %d" v dict_len;
              v)
        in
        { Table.cs_entries; cs_appends; cs_intern_on; cs_ids })
  in
  let nbytes = (n + 7) / 8 in
  need c nbytes;
  let s_live = Array.init n (fun id -> Char.code c.s.[c.p + (id / 8)] land (1 lsl (id land 7)) <> 0) in
  c.p <- c.p + nbytes;
  let s_cur_page = get_u32 c in
  let s_cur_fill = get_u32 c in
  let pw = Column_dict.width_for (s_cur_page + 1) in
  let s_row_pages = Array.init n (fun _ -> get_fixed c pw) in
  let s_row_sizes = Array.init n (fun _ -> get_u32 c) in
  let s_data_bytes = Int64.to_int (get_u64 c) in
  let s_live_bytes = Int64.to_int (get_u64 c) in
  if legacy then skip c 16;
  let n_idx = get_u32 c in
  if n_idx > remaining c then corrupt "index count %d exceeds input" n_idx;
  let s_indexes =
    List.init n_idx (fun _ ->
        let col = get_str c in
        get_index_kind c;
        col)
  in
  {
    Table.s_name;
    s_schema;
    s_cols;
    s_live;
    s_row_pages;
    s_row_sizes;
    s_cur_page;
    s_cur_fill;
    s_data_bytes;
    s_live_bytes;
    s_indexes;
  }

let get_table_snapshot c = get_table ~legacy:false c
let get_table_snapshot_v2 c = get_table ~legacy:true c
