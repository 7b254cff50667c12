(* Epoch-view cost: what a reader pays for the first view after a
   write, and what the indexes cost writers and memory to make that
   view cheap (DESIGN.md §5f, EXPERIMENTS.md A10 and A20).

   One table per size (id, name, score) with B-tree indexes on all
   three columns — the shape of test_sqldb's "freeze cost bounded".
   Per size it reports:

   - words reachable from the table per row, before the first view and
     after it (the cached view included);
   - [Table.freeze] right after one insert: words allocated per freeze
     (absolute, not per row; median of 101 insert + freeze cycles) and
     wall time (mean over the same cycles: the clock ticks in whole
     microseconds, and the mean of the ticks a freeze spans is an
     unbiased estimate of a sub-microsecond freeze);
   - [Table.insert] with the three indexes: wall time and words
     allocated per insert, over 2000 inserts with no freeze between.

   Then one SPARTA encrypted table at the largest size, capped at
   [encrypted_cap] rows (the figure has settled by then), under
   bucketized-1000 (wrebench's [sparta] scheme), loaded with
   [insert_batch]: the words reachable from its table per row, the
   live size the column dictionaries and vectors hold (EXPERIMENTS.md
   A21).

   Writes BENCH_freeze.json with [freeze_flat]: true when the words one
   freeze allocates at the largest size are at most the smallest
   size's plus [slack_words], i.e. a freeze copies nothing row-sized
   (CI greps it), and [encrypted_words_per_row].

   Uses only the [Table] and [Encrypted_db] APIs, so the same file
   measures any revision that has them. *)

open Sqldb

let schema =
  Schema.create
    [
      { Schema.name = "id"; ty = Value.TInt; nullable = false };
      { Schema.name = "name"; ty = Value.TText; nullable = false };
      { Schema.name = "score"; ty = Value.TReal; nullable = true };
    ]

let row i = [| Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "n%d" (i mod 97)); Value.Real (float_of_int i) |]

(* Words allocated anywhere (minor and major, promotions counted once).
   The minor count comes from [Gc.minor_words]: the one in
   [Gc.counters] reads an eighth of the true count on OCaml 5.1. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

type size = {
  n : int;
  held_no_view : float;  (* words reachable per row *)
  held_view : float;
  freeze_words : float;  (* allocated by one freeze after one insert, median *)
  freeze_us : float;  (* mean *)
  insert_us : float;
  insert_words : float;
}

(* A freeze allocates a fixed number of words per column and per index;
   this bounds any difference between sizes that is not row-sized. *)
let slack_words = 64.0

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
    List.init 101 (fun k ->
        ignore (Table.insert t (row (n + k)));
        let before = allocated () in
        let _, ns = Stdx.Clock.time_it (fun () -> Sys.opaque_identity (Table.freeze t)) in
        (allocated () -. before, ns))
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
  {
    n;
    held_no_view;
    held_view;
    freeze_words = median (List.map fst cycles);
    freeze_us = Stdx.Stats.mean (Array.of_list (List.map snd cycles)) /. 1e3;
    insert_us = insert_ns /. float_of_int inserts /. 1e3;
    insert_words;
  }

(* Rows of the encrypted table at most: its words per row are within
   about 1% of the 10k-row figure by 20k (EXPERIMENTS.md A21). *)
let encrypted_cap = 20_000

(* Words reachable from an encrypted SPARTA table per row, right after
   one [insert_batch] of [n] generated rows. *)
let encrypted_words_per_row n =
  let rows = Bench_util.generate_rows n in
  let edb =
    Wre.Encrypted_db.create ~db:(Database.create ()) ~name:"main"
      ~plain_schema:Sparta.Generator.schema ~key_column:"id"
      ~encrypted_columns:Bench_util.enc_columns ~kind:(Wre.Scheme.Bucketized 1000.0)
      ~master:(Crypto.Keys.generate (Stdx.Prng.create 1L))
      ~dist_of:(Bench_util.dist_of_rows rows) ~seed:2L ()
  in
  ignore (Wre.Encrypted_db.insert_batch edb rows);
  float_of_int (Obj.reachable_words (Obj.repr (Wre.Encrypted_db.table edb))) /. float_of_int n

let write_json sizes ~freeze_flat ~encrypted_rows ~encrypted =
  let open Bench_util in
  let metrics =
    List.concat_map
      (fun s ->
        let k name = Printf.sprintf "%s_%d" name s.n in
        [
          (k "held_words_per_row", Printf.sprintf "%.2f" s.held_view);
          (k "freeze_words", Printf.sprintf "%.0f" s.freeze_words);
          (k "freeze_us", Printf.sprintf "%.2f" s.freeze_us);
          (k "insert_us", Printf.sprintf "%.2f" s.insert_us);
          (k "insert_words", Printf.sprintf "%.0f" s.insert_words);
        ])
      sizes
    @ [
        ("freeze_flat", if freeze_flat then "true" else "false");
        ("encrypted_words_per_row", Printf.sprintf "%.1f" encrypted);
      ]
  in
  let json =
    json_obj
      [
        ("name", "\"freeze\"");
        ( "config",
          json_obj
            [
              ( "rows",
                "[" ^ String.concat ", " (List.map (fun s -> string_of_int s.n) sizes) ^ "]" );
              ("cores", string_of_int (Domain.recommended_domain_count ()));
              ("indexes", "3");
              ("encrypted_rows", string_of_int encrypted_rows);
              ("slack_words", Printf.sprintf "%.0f" slack_words);
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  write_bench_json ~path:"BENCH_freeze.json" json;
  Printf.printf "wrote BENCH_freeze.json (freeze words flat across sizes: %b)\n" freeze_flat

let run ~rows () =
  Bench_util.heading "Epoch views: freeze after a write, index insert cost, memory";
  let t =
    Stdx.Table_fmt.create
      [
        "rows";
        "words/row, no view";
        "with view";
        "freeze words";
        "freeze us";
        "insert us";
        "insert words";
      ]
  in
  let sizes = List.map measure [ max 1 (rows / 50); max 1 (rows / 5); rows ] in
  List.iter
    (fun s ->
      Stdx.Table_fmt.add_row t
        [
          string_of_int s.n;
          Printf.sprintf "%.1f" s.held_no_view;
          Printf.sprintf "%.1f" s.held_view;
          Printf.sprintf "%.0f" s.freeze_words;
          Printf.sprintf "%.2f" s.freeze_us;
          Printf.sprintf "%.2f" s.insert_us;
          Printf.sprintf "%.0f" s.insert_words;
        ])
    sizes;
  Stdx.Table_fmt.print t;
  let smallest = List.hd sizes and largest = List.nth sizes (List.length sizes - 1) in
  let encrypted_rows = min largest.n encrypted_cap in
  let encrypted = encrypted_words_per_row encrypted_rows in
  Printf.printf "encrypted SPARTA table, bucketized-1000, %d rows: %.1f words/row\n"
    encrypted_rows encrypted;
  write_json sizes ~encrypted_rows ~encrypted
    ~freeze_flat:(largest.freeze_words <= smallest.freeze_words +. slack_words)
