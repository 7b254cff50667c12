(* lint: guarded-by writer — every mutable field below is written only
   while [writer] is held (mutations run inside [mutate]; [freeze]
   takes the lock to read). *)

type col = {
  mutable dict : Column_dict.t;
  mutable ids : int Stdx.Vec.t;
      (* dictionary id per heap slot; -1 = vacuum-reclaimed. Append-only
         between vacuums; vacuum swaps in a fresh vector so frozen views
         keep the old backing. *)
}

type t = {
  name : string;
  schema : Schema.t;
  heap_rel : Pager.rel;
  cols : col array;  (* one per schema column: dictionary-encoded columnar storage *)
  live : bool Stdx.Vec.t;
  mutable row_pages : int Stdx.Vec.t;
  mutable row_sizes : int Stdx.Vec.t;  (* physical tuple bytes per slot; 0 = reclaimed *)
  mutable n_dead : int;
  mutable cur_page : int;
  mutable cur_fill : int; (* bytes used on the current heap page *)
  mutable data_bytes : int; (* physical tuple bytes, live + dead-but-unvacuumed *)
  mutable live_bytes : int; (* physical tuple bytes of live rows only *)
  indexes : (string, Table_index.t) Hashtbl.t;
  mutable range_trees : (string * Range_tree.t) list;
      (* boundary trees by rtag column; not journaled — the client
         registers them again from checkpointed boundaries on attach *)
  mutable journal : Journal.hook option;
  (* Epoch-based copy-on-write reads: every mutation runs under
     [writer], bumps [epoch] and invalidates the cached frozen view;
     [freeze] rebuilds it at most once per epoch. Readers work against
     the returned [Read_view.t] without taking any lock. *)
  writer : Mutex.t;
  mutable epoch : int;
  mutable frozen : Read_view.t option;
}

let set_journal t hook = t.journal <- hook
let emit t m = match t.journal with None -> () | Some hook -> hook m

(* Run a mutation under the writer lock: publish a new epoch and drop
   the cached view so the next [freeze] sees the new state. Journal
   hooks fire inside the critical section — the storage engine's WAL
   append stays ordered with the mutation it records. *)
let mutate t f =
  Mutex.protect t.writer (fun () ->
      t.epoch <- t.epoch + 1;
      t.frozen <- None;
      f ())

let page_header = 24
let row_tuple_header = 24 (* row format: full header + null bitmap *)
let col_tuple_header = 8 (* columnar tuple: visibility word only *)
let line_pointer = 4
let maxalign n = (n + 7) land lnot 7

let create ~name ~schema =
  {
    name;
    schema;
    heap_rel = Pager.make_rel ();
    cols =
      Array.map
        (fun (_ : Schema.column) -> { dict = Column_dict.create (); ids = Stdx.Vec.create () })
        (Schema.columns schema);
    live = Stdx.Vec.create ();
    row_pages = Stdx.Vec.create ();
    row_sizes = Stdx.Vec.create ();
    n_dead = 0;
    cur_page = 0;
    cur_fill = 0;
    data_bytes = 0;
    live_bytes = 0;
    indexes = Hashtbl.create 4;
    range_trees = [];
    journal = None;
    writer = Mutex.create ();
    epoch = 0;
    frozen = None;
  }

let name t = t.name
let schema t = t.schema
let n_cols t = Array.length t.cols

(* Logical (row-format) tuple size — unchanged from the row-storage
   engine: read/transfer charges and the row-model baseline both use
   it, so modeled query costs do not depend on the physical layout. *)
let tuple_bytes schema row =
  let data = Array.fold_left (fun acc v -> acc + Value.heap_bytes v) 0 row in
  let null_bitmap = if Array.exists (fun v -> v = Value.Null) row then (Schema.arity schema + 7) / 8 else 0 in
  row_tuple_header + line_pointer + maxalign (data + null_bitmap)

let row_count t = Stdx.Vec.length t.live
let live_count t = row_count t - t.n_dead
let is_live t id = Stdx.Vec.get t.live id

(* Shared sentinel for vacuumed-away tuples: physical identity
   distinguishes it from any real row (all empty arrays are the same
   atom, but no live materialized row of a non-empty schema is empty). *)
let reclaimed : Value.t array = [||]

let is_reclaimed_slot t id = n_cols t > 0 && Stdx.Vec.get t.cols.(0).ids id < 0

let value_at t c id = Column_dict.get t.cols.(c).dict (Stdx.Vec.get t.cols.(c).ids id)

let peek_row t id =
  ignore (Stdx.Vec.get t.live id : bool) (* bound-check even for 0-column schemas *);
  if n_cols t = 0 || is_reclaimed_slot t id then reclaimed
  else Array.init (n_cols t) (fun c -> value_at t c id)

(* Heap bookkeeping of one appended row: dictionary interning, page
   assignment, per-slot vec pushes. Index maintenance is the caller's
   job ([apply] resolves index column positions once per statement). *)
let append_row t row =
  let widths = ref 0 in
  Array.iteri
    (fun c v ->
      let col = t.cols.(c) in
      let did = Column_dict.intern col.dict v in
      Stdx.Vec.push col.ids did;
      (* Interned columns store an id per tuple (the value lives in the
         dictionary); raw-mode columns store the value inline. *)
      widths :=
        !widths
        + (if Column_dict.is_accounted col.dict did then Column_dict.id_width col.dict
           else Value.heap_bytes v))
    row;
  let bytes = col_tuple_header + line_pointer + maxalign !widths in
  let usable = Pager.cost_model.page_size - page_header in
  if t.cur_fill + bytes > usable && t.cur_fill > 0 then begin
    t.cur_page <- t.cur_page + 1;
    t.cur_fill <- 0
  end;
  t.cur_fill <- t.cur_fill + bytes;
  t.data_bytes <- t.data_bytes + bytes;
  t.live_bytes <- t.live_bytes + bytes;
  let id = Stdx.Vec.length t.live in
  Stdx.Vec.push t.row_pages t.cur_page;
  Stdx.Vec.push t.row_sizes bytes;
  Stdx.Vec.push t.live true;
  id

(* Index column positions, resolved once per call instead of once per
   row per index. *)
let index_positions t =
  Hashtbl.fold (fun col idx acc -> (Schema.column_index t.schema col, idx) :: acc) t.indexes []

let apply t ~delete ~insert =
  Array.iteri
    (fun i row ->
      match Schema.validate_row t.schema row with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Table.apply(%s): row %d: %s" t.name i e))
    insert;
  (* Ids only ever grow (vacuum keeps them), so one checked before the
     lock is still in range under it. *)
  Array.iter
    (fun id ->
      if id < 0 || id >= row_count t then
        invalid_arg (Printf.sprintf "Table.apply(%s): row id %d out of range" t.name id))
    delete;
  if Array.length delete = 0 && Array.length insert = 0 then (0, row_count t)
  else
    mutate t @@ fun () ->
    (* Dead tuples keep their heap storage (and dictionary references)
       until vacuum, but stop counting toward the live-byte totals that
       [avg_row_bytes] reports. *)
    let deleted = ref [] in
    Array.iter
      (fun id ->
        if Stdx.Vec.get t.live id then begin
          Stdx.Vec.set t.live id false;
          t.n_dead <- t.n_dead + 1;
          t.live_bytes <- t.live_bytes - Stdx.Vec.get t.row_sizes id;
          deleted := id :: !deleted
        end)
      delete;
    let deleted = Array.of_list (List.rev !deleted) in
    let positions = index_positions t in
    let first = Stdx.Vec.length t.live in
    Array.iter
      (fun row ->
        let id = append_row t row in
        List.iter (fun (pos, idx) -> Table_index.insert idx row.(pos) id) positions)
      insert;
    if Array.length deleted > 0 || Array.length insert > 0 then
      (* Materialized from the dictionaries, not the caller's arrays:
         the hook may retain them. *)
      emit t
        (Journal.Applied
           {
             table = t.name;
             deleted;
             inserted = Array.init (Array.length insert) (fun i -> peek_row t (first + i));
           });
    (Array.length deleted, first)

let insert t row = snd (apply t ~delete:[||] ~insert:[| row |])
let insert_batch t rows = snd (apply t ~delete:[||] ~insert:rows)
let delete t id = fst (apply t ~delete:[| id |] ~insert:[||]) = 1
let row_page t id = Stdx.Vec.get t.row_pages id

let vacuum t =
  mutate t @@ fun () ->
  if t.n_dead > 0 then begin
    let positions = index_positions t in
    let n = row_count t in
    (* 1. Drop dead tuples: index entries first (while the key values
       are still readable through the old dictionaries), then release
       their dictionary references. *)
    for id = 0 to n - 1 do
      if (not (Stdx.Vec.get t.live id)) && not (is_reclaimed_slot t id) then begin
        List.iter (fun (pos, idx) -> Table_index.remove idx (value_at t pos id) id) positions;
        Array.iter (fun col -> Column_dict.release col.dict (Stdx.Vec.get col.ids id)) t.cols
      end
    done;
    (* 2. Reclaim dictionary space: entries whose last reference just
       went away become holes. Copy-on-write — frozen views keep the
       old entries backing, and surviving ids are never remapped. *)
    Array.iter (fun col -> Column_dict.vacuum col.dict) t.cols;
    (* 3. Repack the heap: reassign pages over live tuples only, into
       fresh vectors so frozen views keep the old backings. Row ids are
       stable (dead ids remain, marked reclaimed); a dead id inherits
       the current page so scans touch no extra pages on its account.
       Live tuples keep the physical size recorded at insert. *)
    let ids' = Array.map (fun _ -> Stdx.Vec.create ()) t.cols in
    let pages' = Stdx.Vec.create () in
    let sizes' = Stdx.Vec.create () in
    t.cur_page <- 0;
    t.cur_fill <- 0;
    t.data_bytes <- 0;
    t.live_bytes <- 0;
    let usable = Pager.cost_model.page_size - page_header in
    for id = 0 to n - 1 do
      if Stdx.Vec.get t.live id then begin
        let bytes = Stdx.Vec.get t.row_sizes id in
        if t.cur_fill + bytes > usable && t.cur_fill > 0 then begin
          t.cur_page <- t.cur_page + 1;
          t.cur_fill <- 0
        end;
        t.cur_fill <- t.cur_fill + bytes;
        t.data_bytes <- t.data_bytes + bytes;
        t.live_bytes <- t.live_bytes + bytes;
        Array.iteri (fun c col -> Stdx.Vec.push ids'.(c) (Stdx.Vec.get col.ids id)) t.cols;
        Stdx.Vec.push sizes' bytes
      end
      else begin
        Array.iter (fun v -> Stdx.Vec.push v (-1)) ids';
        Stdx.Vec.push sizes' 0
      end;
      Stdx.Vec.push pages' t.cur_page
    done;
    Array.iteri (fun c col -> col.ids <- ids'.(c)) t.cols;
    t.row_pages <- pages';
    t.row_sizes <- sizes';
    emit t (Journal.Vacuumed { table = t.name })
  end

let create_index t ~column =
  mutate t @@ fun () ->
  match Hashtbl.find_opt t.indexes column with
  | Some idx -> idx
  | None ->
      let col_pos = Schema.column_index t.schema column in
      let idx = Table_index.create () in
      for id = 0 to row_count t - 1 do
        (* Dead-but-unvacuumed tuples are indexed (as live tables do);
           reclaimed slots have no values to index. *)
        if not (is_reclaimed_slot t id) then Table_index.insert idx (value_at t col_pos id) id
      done;
      Hashtbl.replace t.indexes column idx;
      emit t (Journal.Created_index { table = t.name; column });
      idx

let index_on t ~column = Hashtbl.find_opt t.indexes column

let set_range_tree t ~column tree =
  mutate t (fun () -> t.range_trees <- (column, tree) :: List.remove_assoc column t.range_trees)

(* Storage accounting: tuple pages plus the pages the resident column
   dictionaries occupy. Query-cost page touches model only the tuple
   pages — dictionary pages are hot by construction (every materialize
   hits them), matching the all-in-memory dictionaries of EncDBDB. *)

let dict_overhead_bytes t =
  Array.fold_left (fun acc col -> acc + Column_dict.overhead_bytes col.dict) 0 t.cols

let page_size = Pager.cost_model.page_size
let tuple_pages t = if t.data_bytes = 0 then 0 else t.cur_page + 1

let dict_pages t =
  let b = dict_overhead_bytes t in
  (b + page_size - 1) / page_size

let heap_pages t = tuple_pages t + dict_pages t
let heap_bytes t = heap_pages t * page_size
let index_bytes t = Hashtbl.fold (fun _ idx acc -> acc + Table_index.size_bytes idx) t.indexes 0
let total_bytes t = heap_bytes t + index_bytes t

let avg_row_bytes t =
  if live_count t = 0 then 0.0 else float_of_int t.live_bytes /. float_of_int (live_count t)

(* The row-format baseline, computed when asked: every unreclaimed
   slot (live or dead-but-unvacuumed) in id order, at its row-format
   size, packed into pages the way the pre-columnar engine filled
   them. Insertion appends in id order and vacuum repacks the live
   slots in id order, so this is the page count that engine would
   hold for the same history. *)
let row_model_pages t =
  let usable = page_size - page_header in
  let pages = ref 0 and fill = ref 0 in
  for id = 0 to row_count t - 1 do
    if not (is_reclaimed_slot t id) then begin
      let bytes = tuple_bytes t.schema (peek_row t id) in
      if !pages = 0 || !fill + bytes > usable then begin
        incr pages;
        fill := 0
      end;
      fill := !fill + bytes
    end
  done;
  !pages

let row_model_bytes t = row_model_pages t * page_size

type column_stats = {
  st_column : string;
  st_rows : int;
  st_distinct : int;
  st_interned : bool;
  st_dict_bytes : int;
  st_ids_bytes : int;
  st_plain_bytes : int;
}

type storage_stats = {
  st_columns : column_stats array;
  st_heap_pages : int;
  st_heap_bytes : int;
  st_row_model_pages : int;
  st_row_model_bytes : int;
}

let storage_stats t =
  let n = row_count t in
  let st_columns =
    Array.mapi
      (fun c (sc : Schema.column) ->
        let col = t.cols.(c) in
        let rows = ref 0 and ids_bytes = ref 0 and plain_bytes = ref 0 in
        let w = Column_dict.id_width col.dict in
        for id = 0 to n - 1 do
          let did = Stdx.Vec.get col.ids id in
          if did >= 0 then begin
            incr rows;
            let v = Column_dict.get col.dict did in
            plain_bytes := !plain_bytes + Value.heap_bytes v;
            ids_bytes :=
              !ids_bytes
              + (if Column_dict.is_accounted col.dict did then w else Value.heap_bytes v)
          end
        done;
        {
          st_column = sc.Schema.name;
          st_rows = !rows;
          st_distinct = Column_dict.live_entries col.dict;
          st_interned = Column_dict.intern_on col.dict;
          st_dict_bytes = Column_dict.overhead_bytes col.dict;
          st_ids_bytes = !ids_bytes;
          st_plain_bytes = !plain_bytes;
        })
      (Schema.columns t.schema)
  in
  {
    st_columns;
    st_heap_pages = heap_pages t;
    st_heap_bytes = heap_bytes t;
    st_row_model_pages = row_model_pages t;
    st_row_model_bytes = row_model_bytes t;
  }

let build_view t =
  let n = row_count t in
  let cols =
    Array.map
      (fun col ->
        let ids, _ = Stdx.Vec.backing col.ids in
        { Read_view.dict = Column_dict.freeze col.dict; ids })
      t.cols
  in
  let row_pages, _ = Stdx.Vec.backing t.row_pages in
  let row_sizes, _ = Stdx.Vec.backing t.row_sizes in
  Read_view.make ~epoch:t.epoch ~name:t.name ~schema:t.schema ~heap_rel:t.heap_rel
    ~cols ~n
    ~live:(Array.init n (Stdx.Vec.get t.live))
    ~row_pages ~row_sizes ~n_dead:t.n_dead ~cur_page:t.cur_page ~cur_fill:t.cur_fill
    ~data_bytes:t.data_bytes ~live_bytes:t.live_bytes
    ~dict_overhead_bytes:(dict_overhead_bytes t) ~reclaimed
    ~row_bytes:(fun row -> tuple_bytes t.schema row)
    ~indexes:
      (Hashtbl.fold (fun col idx acc -> (col, Table_index.snapshot idx) :: acc) t.indexes []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
    ~range_trees:t.range_trees

(* Publish the current epoch as an immutable read view. Cached: the
   one copy (the visibility bitmap — the columnar storage and the index
   postings roots are shared by pointer, see Read_view) happens at most
   once per epoch, and only when a reader actually asks. *)
let freeze t =
  Mutex.protect t.writer @@ fun () ->
  match t.frozen with
  | Some v -> v
  | None ->
      let v = build_view t in
      t.frozen <- Some v;
      v

(* Physical snapshot: the exact columnar heap state, including
   tombstones, vacuum holes and dictionary contents, so a restored
   table is byte-identical — same row ids, dictionary ids, page
   assignment and accounting — even after vacuums that a logical
   replay could not reproduce. *)

type column_snapshot = {
  cs_entries : (Value.t * bool) option array;
      (* dictionary slots in id order; [None] = hole, bool = dictionary-accounted *)
  cs_appends : int;
  cs_intern_on : bool;
  cs_ids : int array;  (* dictionary id per heap slot; -1 = reclaimed *)
}

type snapshot = {
  s_name : string;
  s_schema : Schema.t;
  s_cols : column_snapshot array;
  s_live : bool array;
  s_row_pages : int array;
  s_row_sizes : int array;
  s_cur_page : int;
  s_cur_fill : int;
  s_data_bytes : int;
  s_live_bytes : int;
  s_indexes : string list;
}

(* Serialize a frozen view. Runs entirely off the writer lock, so a
   checkpoint can serialize a multi-second snapshot while writers (and
   other readers) proceed against newer epochs. *)
let snapshot_of_view v =
  let n = Read_view.row_count v in
  {
    s_name = Read_view.name v;
    s_schema = Read_view.schema v;
    s_cols =
      Array.init (Read_view.n_cols v) (fun c ->
          let d = Read_view.dict v ~col:c in
          {
            cs_entries = Array.init (Column_dict.frozen_len d) (Column_dict.frozen_entry d);
            cs_appends = Column_dict.frozen_appends d;
            cs_intern_on = Column_dict.frozen_intern_on d;
            cs_ids = Array.init n (Read_view.col_id v ~col:c);
          });
    s_live = Array.init n (Read_view.is_live v);
    s_row_pages = Array.init n (Read_view.row_page v);
    s_row_sizes = Array.init n (Read_view.row_size v);
    s_cur_page = Read_view.cur_page v;
    s_cur_fill = Read_view.cur_fill v;
    s_data_bytes = Read_view.data_bytes v;
    s_live_bytes = Read_view.live_bytes v;
    s_indexes = List.map fst (Read_view.indexes v);
  }

let snapshot t = snapshot_of_view (freeze t)

let of_snapshot s =
  let t = create ~name:s.s_name ~schema:s.s_schema in
  let n = Array.length s.s_live in
  (* Dictionaries first (reference counts rebuilt from the heap slots
     below), then the heap vectors verbatim. *)
  Array.iteri
    (fun c cs ->
      let col = t.cols.(c) in
      col.dict <-
        Column_dict.of_entries ~appends:cs.cs_appends ~intern_on:cs.cs_intern_on cs.cs_entries;
      col.ids <- Stdx.Vec.of_array cs.cs_ids;
      Array.iter (fun did -> if did >= 0 then Column_dict.addref col.dict did) cs.cs_ids)
    s.s_cols;
  let n_dead = ref 0 in
  for id = 0 to n - 1 do
    Stdx.Vec.push t.live s.s_live.(id);
    Stdx.Vec.push t.row_pages s.s_row_pages.(id);
    Stdx.Vec.push t.row_sizes s.s_row_sizes.(id);
    if not s.s_live.(id) then incr n_dead
  done;
  t.n_dead <- !n_dead;
  t.cur_page <- s.s_cur_page;
  t.cur_fill <- s.s_cur_fill;
  t.data_bytes <- s.s_data_bytes;
  t.live_bytes <- s.s_live_bytes;
  (* Rebuild indexes directly: dead-but-unvacuumed tuples keep their
     entries (as live tables do), reclaimed slots have none. Bypasses
     [create_index] so no journal events fire during restore. *)
  List.iter
    (fun column ->
      let col_pos = Schema.column_index t.schema column in
      let idx = Table_index.create () in
      for id = 0 to n - 1 do
        if not (is_reclaimed_slot t id) then Table_index.insert idx (value_at t col_pos id) id
      done;
      Hashtbl.replace t.indexes column idx)
    s.s_indexes;
  t
