(* An immutable point-in-time view of one table: the snapshot a reader
   domain works against while writers keep mutating the live table.
   Nothing row-sized is copied. The columnar storage is shared with the
   table by pointer — per-column dictionary backings and id arrays are
   append-only (vacuum replaces them wholesale instead of mutating
   shared slots), so everything below a frozen length is immutable
   forever — and so are the index postings, persistent trees whose
   current roots the view holds. Visibility is shared too: the table
   tombstones a slot in place by writing its statement's epoch, always
   above every published view's, so a slot is live here while its death
   epoch is above [epoch]. A racy read of that immediate int sees the
   old value or the new one, and both read as live to this view; a push
   that reallocates the backing leaves this view on the old array,
   which then misses only later deaths. So no later insert, delete,
   vacuum or checkpoint is observable through the view. Built by
   [Table.freeze] under the table's writer lock; every accessor here is
   a pure read plus pager charges, safe to call from any domain. *)

type col = {
  dict : Column_dict.frozen;
  ids : int array;  (* shared backing; only the first [n] slots are ours *)
}

type t = {
  epoch : int;
  name : string;
  schema : Schema.t;
  heap_rel : Pager.rel;
  cols : col array;
  n : int;  (* heap slots at freeze time; shared backings may be longer *)
  dead_at : int array;  (* shared backing; death epoch per slot, [max_int] while live *)
  row_pages : int array;  (* shared backing *)
  row_sizes : int array;  (* shared backing; physical tuple bytes *)
  n_dead : int;
  cur_page : int;
  cur_fill : int;
  data_bytes : int;
  live_bytes : int;
  reclaimed : Value.t array; (* physical sentinel for vacuumed slots *)
  row_bytes : Value.t array -> int; (* logical tuple size, for transfer charges *)
  indexes : (string * Table_index.t) list; (* postings roots at freeze time, sorted by column *)
  range_trees : (string * Range_tree.t) list; (* boundary trees by rtag column *)
}

let make ~epoch ~name ~schema ~heap_rel ~cols ~n ~dead_at ~row_pages ~row_sizes ~n_dead
    ~cur_page ~cur_fill ~data_bytes ~live_bytes ~reclaimed ~row_bytes ~indexes ~range_trees =
  { epoch; name; schema; heap_rel; cols; n; dead_at; row_pages; row_sizes; n_dead;
    cur_page; cur_fill; data_bytes; live_bytes; reclaimed; row_bytes; indexes; range_trees }

let epoch t = t.epoch
let name t = t.name
let schema t = t.schema

let row_count t = t.n
let live_count t = t.n - t.n_dead

(* Shared backings outlive [n], so every per-row accessor must bound-
   check explicitly rather than rely on the array length. *)
let check t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Read_view(%s): row %d out of bounds (rows %d)" t.name id t.n)

let is_live t id =
  check t id;
  t.dead_at.(id) > t.epoch

(* Index entries may point at tombstoned tuples; drop them — the
   visibility check a real executor performs. *)
let live_only t ids =
  if live_count t = row_count t then ids else Array.of_seq (Seq.filter (is_live t) (Array.to_seq ids))

let n_cols t = Array.length t.cols

let is_reclaimed t id =
  check t id;
  n_cols t > 0 && t.cols.(0).ids.(id) < 0

let materialize t id =
  Array.map (fun c -> Column_dict.frozen_get c.dict c.ids.(id)) t.cols

let peek_row t id = if is_reclaimed t id then t.reclaimed else materialize t id

let row_page t id =
  check t id;
  t.row_pages.(id)

let charge_read t id row =
  Pager.touch t.heap_rel t.row_pages.(id);
  Pager.charge_rows 1;
  Pager.charge_transfer (t.row_bytes row)

let read_row t id =
  let row = peek_row t id in
  charge_read t id row;
  row

let read_cols t id positions =
  let row =
    if is_reclaimed t id then t.reclaimed
    else begin
      let row = Array.make (n_cols t) Value.Null in
      for k = 0 to Array.length positions - 1 do
        let p = positions.(k) in
        let c = t.cols.(p) in
        row.(p) <- Column_dict.frozen_get c.dict c.ids.(id)
      done;
      row
    end
  in
  charge_read t id row;
  row

let scan t f =
  let last_page = ref (-1) in
  for id = 0 to t.n - 1 do
    let page = t.row_pages.(id) in
    if page <> !last_page then begin
      Pager.touch t.heap_rel page;
      last_page := page
    end;
    if t.dead_at.(id) > t.epoch then f id (peek_row t id)
  done;
  Pager.charge_rows t.n

let index_on t ~column =
  List.assoc_opt column t.indexes

let indexes t = t.indexes
let range_tree t ~column = List.assoc_opt column t.range_trees

let cur_page t = t.cur_page
let cur_fill t = t.cur_fill
let data_bytes t = t.data_bytes
let live_bytes t = t.live_bytes

(* Columnar internals, for the checkpoint serializer: everything the
   wire format needs, without materializing rows. *)

let col_id t ~col id =
  check t id;
  t.cols.(col).ids.(id)

let row_size t id =
  check t id;
  t.row_sizes.(id)

let dict t ~col = t.cols.(col).dict
