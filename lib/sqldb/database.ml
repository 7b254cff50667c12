(* lint: guarded-by Table.writer (single-writer discipline; catalog mutates only on DDL) *)
type t = {
  catalog : (string, Table.t) Hashtbl.t;
  mutable journal : Journal.hook option;
}

let create () = { catalog = Hashtbl.create 8; journal = None }

let set_journal t hook =
  t.journal <- hook;
  Hashtbl.iter (fun _ tbl -> Table.set_journal tbl hook) t.catalog

let create_table t ~name ~schema =
  if Hashtbl.mem t.catalog name then
    invalid_arg (Printf.sprintf "Database.create_table: table %S already exists" name);
  let table = Table.create ~name ~schema in
  Hashtbl.replace t.catalog name table;
  (match t.journal with
  | None -> ()
  | Some hook ->
      Table.set_journal table (Some hook);
      hook (Journal.Created_table { name; schema }));
  table

let restore_table t snap =
  let name = snap.Table.s_name in
  if Hashtbl.mem t.catalog name then
    invalid_arg (Printf.sprintf "Database.restore_table: table %S already exists" name);
  let table = Table.of_snapshot snap in
  Hashtbl.replace t.catalog name table;
  (* Future mutations are journaled; the restore itself is not. *)
  Table.set_journal table t.journal;
  table

let table t name =
  match Hashtbl.find_opt t.catalog name with Some tbl -> tbl | None -> raise Not_found

let table_opt t name = Hashtbl.find_opt t.catalog name

(* Two-table name resolution + freeze for a join: both views are taken
   back to back under the caller's single-writer discipline (no
   mutation can interleave between the two [Table.freeze] calls), so
   they form one epoch-consistent pair. *)
let freeze_pair t a b =
  match (Hashtbl.find_opt t.catalog a, Hashtbl.find_opt t.catalog b) with
  | Some ta, Some tb -> Some (Table.freeze ta, Table.freeze tb)
  | _ -> None
let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.catalog []

let heap_bytes t = Hashtbl.fold (fun _ tbl acc -> acc + Table.heap_bytes tbl) t.catalog 0
let total_bytes t = Hashtbl.fold (fun _ tbl acc -> acc + Table.total_bytes tbl) t.catalog 0
