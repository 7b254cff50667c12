(* Epoch-view cost: what a reader pays for the first view after a
   write, and what the indexes cost writers and memory to make that
   view cheap (DESIGN.md §5f, EXPERIMENTS.md A10).

   One table per size (id, name, score) with B-tree indexes on all
   three columns — the shape of test_sqldb's "freeze cost bounded".
   Per size it reports:

   - words reachable from the table per row, before the first view and
     after it (the cached view included);
   - [Table.freeze] right after one insert: words allocated per row and
     wall time (median of 21 insert + freeze cycles);
   - [Table.insert] with the three indexes: wall time and words
     allocated per insert, over 2000 inserts with no freeze between;
   - the freeze that follows those 2000 inserts.

   Uses only the [Table] API, so the same file measures any revision. *)

open Sqldb

let schema =
  Schema.create
    [
      { Schema.name = "id"; ty = Value.TInt; nullable = false };
      { Schema.name = "name"; ty = Value.TText; nullable = false };
      { Schema.name = "score"; ty = Value.TReal; nullable = true };
    ]

let row i = [| Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "n%d" (i mod 97)); Value.Real (float_of_int i) |]

(* Words allocated anywhere (minor and major, promotions counted once). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure n =
  let t = Table.create ~name:"f" ~schema in
  ignore (Table.insert_batch t (Array.init n row));
  ignore (Table.create_index t ~column:"id");
  ignore (Table.create_index t ~column:"score");
  ignore (Table.create_index t ~column:"name");
  let held () =
    Gc.compact ();
    float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int n
  in
  let held_no_view = held () in
  ignore (Table.freeze t);
  let held_view = held () in
  let cycles =
    List.init 21 (fun k ->
        ignore (Table.insert t (row (n + k)));
        let before = allocated () in
        let _, ns = Stdx.Clock.time_it (fun () -> Sys.opaque_identity (Table.freeze t)) in
        ((allocated () -. before) /. float_of_int n, ns))
  in
  let inserts = 2000 in
  let before = allocated () in
  let (), insert_ns =
    Stdx.Clock.time_it (fun () ->
        for k = 1 to inserts do
          ignore (Table.insert t (row (n + 100 + k)))
        done)
  in
  let insert_words = (allocated () -. before) /. float_of_int inserts in
  let _, bulk_ns = Stdx.Clock.time_it (fun () -> Sys.opaque_identity (Table.freeze t)) in
  [
    string_of_int n;
    Printf.sprintf "%.1f" held_no_view;
    Printf.sprintf "%.1f" held_view;
    Printf.sprintf "%.2f" (median (List.map fst cycles));
    Printf.sprintf "%.3f" (median (List.map snd cycles) /. 1e6);
    Printf.sprintf "%.2f" (insert_ns /. float_of_int inserts /. 1e3);
    Printf.sprintf "%.0f" insert_words;
    Printf.sprintf "%.3f" (bulk_ns /. 1e6);
  ]

let run ~rows () =
  Bench_util.heading "Epoch views: freeze after a write, index insert cost, memory";
  let t =
    Stdx.Table_fmt.create
      [
        "rows";
        "words/row, no view";
        "with view";
        "freeze words/row";
        "freeze ms";
        "insert us";
        "insert words";
        "freeze after 2000 inserts ms";
      ]
  in
  List.iter (fun n -> Stdx.Table_fmt.add_row t (measure n)) [ max 1 (rows / 50); max 1 (rows / 5); rows ];
  Stdx.Table_fmt.print t
