(* Properties of the ESEDS encrypted range structure (DESIGN.md §5k).

   The load-bearing contract is *interchangeability with the flat
   plan*: a cover's leaf tags must equal [Range_index.tags_for_range]
   over the same range, for any boundaries and any bounds — that is
   what makes the [Range_traverse] executor plan byte-compatible with
   the flat rtag IN-list rewrite (and what the differential oracle
   then checks end to end through the proxy). The rest is totality
   (inverted / unbounded / empty ranges, unknown roots), persistence
   (rebuild from checkpointed boundaries is byte-identical) and the
   server-side node-table validation. *)

open Sqldb

let master = Crypto.Keys.of_raw ~k0:(String.make 16 'r') ~k1:(String.make 32 's')
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Generators ---------------- *)

(* Strictly increasing boundary arrays, as [Range_index.boundaries]
   produces them — including the empty array (a single unbounded
   bucket). *)
let boundaries_gen =
  QCheck.Gen.(
    map
      (fun xs -> Array.of_list (List.sort_uniq Int64.compare (List.map Int64.of_int xs)))
      (list_size (0 -- 12) (int_range (-1000) 1000)))

let bound_gen = QCheck.Gen.(opt (map Int64.of_int (int_range (-1200) 1200)))
let range_case_gen = QCheck.Gen.(triple boundaries_gen bound_gen bound_gen)

(* ---------------- QCheck properties ---------------- *)

let qcheck_cover_matches_flat =
  QCheck.Test.make ~name:"cover leaf tags equal flat bucket tags" ~count:500
    (QCheck.make range_case_gen)
    (fun (boundaries, lo, hi) ->
      let rs = Wre.Range_struct.create ~master ~column:"q" ~boundaries in
      let ri = Wre.Range_index.restore ~master ~column:"q" ~boundaries in
      Wre.Range_struct.leaf_tags rs (Wre.Range_struct.cover rs ~lo ~hi)
      = Wre.Range_index.tags_for_range ri ~lo ~hi)

let qcheck_traversal_expands_cover =
  QCheck.Test.make ~name:"server traversal of cover roots re-derives the leaf tags" ~count:500
    (QCheck.make range_case_gen)
    (fun (boundaries, lo, hi) ->
      let rs = Wre.Range_struct.create ~master ~column:"q" ~boundaries in
      let tree = Wre.Range_struct.tree rs in
      let cover = Wre.Range_struct.cover rs ~lo ~hi in
      let expanded =
        List.concat_map
          (fun root ->
            match Range_tree.traverse tree ~root with
            | Some (tags, _) -> Array.to_list tags
            | None -> QCheck.Test.fail_report "cover shipped a root the tree does not know")
          (Array.to_list cover.Wre.Range_struct.roots)
      in
      expanded = Wre.Range_struct.leaf_tags rs cover
      (* The canonical cover is logarithmic: at most two roots per
         tree level below the root. *)
      && Array.length cover.Wre.Range_struct.roots
         <= max 1 (2 * (Wre.Range_struct.depth rs - 1)))

let qcheck_rebuild_identical =
  QCheck.Test.make ~name:"rebuild from checkpointed boundaries is byte-identical" ~count:200
    (QCheck.make boundaries_gen)
    (fun boundaries ->
      let a = Wre.Range_struct.create ~master ~column:"q" ~boundaries in
      let b =
        Wre.Range_struct.of_index ~master ~column:"q"
          (Wre.Range_index.restore ~master ~column:"q" ~boundaries)
      in
      Wre.Range_struct.nodes a = Wre.Range_struct.nodes b
      && Wre.Range_struct.root_tag a = Wre.Range_struct.root_tag b)

(* ---------------- Totality ---------------- *)

let test_single_bucket () =
  let rs = Wre.Range_struct.create ~master ~column:"one" ~boundaries:[||] in
  check_int "one bucket" 1 (Wre.Range_struct.bucket_count rs);
  check_int "one node" 1 (Wre.Range_struct.node_count rs);
  check_int "depth one" 1 (Wre.Range_struct.depth rs);
  let c = Wre.Range_struct.cover rs ~lo:None ~hi:None in
  check_bool "unbounded cover is the root" true
    (c.Wre.Range_struct.roots = [| Wre.Range_struct.root_tag rs |]);
  check_int "one leaf tag" 1 (List.length (Wre.Range_struct.leaf_tags rs c))

let test_inverted_and_unbounded () =
  let boundaries = Array.map Int64.of_int [| 10; 20; 30; 40 |] in
  let rs = Wre.Range_struct.create ~master ~column:"v" ~boundaries in
  let inv = Wre.Range_struct.cover rs ~lo:(Some 35L) ~hi:(Some 12L) in
  check_bool "inverted range ships no roots" true (inv.Wre.Range_struct.roots = [||]);
  check_bool "inverted range is empty" true
    (inv.Wre.Range_struct.last_bucket < inv.Wre.Range_struct.first_bucket);
  check_bool "inverted range expands to no tags" true
    (Wre.Range_struct.leaf_tags rs inv = []);
  let all = Wre.Range_struct.cover rs ~lo:None ~hi:None in
  check_bool "unbounded cover is the single root pseudonym" true
    (all.Wre.Range_struct.roots = [| Wre.Range_struct.root_tag rs |]);
  check_int "unbounded cover expands to every bucket"
    (Wre.Range_struct.bucket_count rs)
    (List.length (Wre.Range_struct.leaf_tags rs all))

let test_unknown_root_total () =
  let boundaries = Array.map Int64.of_int [| 1; 2; 3 |] in
  let rs = Wre.Range_struct.create ~master ~column:"v" ~boundaries in
  let tree = Wre.Range_struct.tree rs in
  check_bool "root pseudonym known" true
    (Range_tree.mem tree ~tag:(Wre.Range_struct.root_tag rs));
  check_bool "garbage root refused, not crashed" true
    (Range_tree.traverse tree ~root:0xdeadbeefL = None);
  check_bool "garbage tag not a member" false (Range_tree.mem tree ~tag:0xdeadbeefL)

(* ---------------- Node-table validation ---------------- *)

let leaf ~tag ~bucket = { Range_tree.tag; left = -1; right = -1; bucket }

let test_make_validation () =
  let rejects name nodes =
    let raised =
      try
        ignore (Range_tree.make nodes);
        false
      with Invalid_argument _ -> true
    in
    check_bool name true raised
  in
  rejects "empty table" [||];
  rejects "duplicate tags"
    [|
      { Range_tree.tag = 1L; left = 1; right = 2; bucket = 0L };
      leaf ~tag:7L ~bucket:10L;
      leaf ~tag:7L ~bucket:11L;
    |];
  rejects "child before parent (not preorder)"
    [|
      leaf ~tag:7L ~bucket:10L;
      { Range_tree.tag = 1L; left = 0; right = 2; bucket = 0L };
      leaf ~tag:8L ~bucket:11L;
    |];
  rejects "internal node missing a child"
    [| { Range_tree.tag = 1L; left = 1; right = -1; bucket = 0L }; leaf ~tag:7L ~bucket:10L |];
  rejects "child index out of bounds"
    [| { Range_tree.tag = 1L; left = 1; right = 9; bucket = 0L }; leaf ~tag:7L ~bucket:10L |];
  let ok =
    Range_tree.make
      [|
        { Range_tree.tag = 1L; left = 1; right = 2; bucket = 0L };
        leaf ~tag:7L ~bucket:10L;
        leaf ~tag:8L ~bucket:11L;
      |]
  in
  check_int "valid table accepted" 3 (Range_tree.node_count ok);
  check_int "two leaves" 2 (Range_tree.leaf_count ok);
  check_int "depth two" 2 (Range_tree.depth ok)

(* ---------------- Executor byte-identity ---------------- *)

(* [run_traverse] over a cover must return exactly what [run_view]
   returns for the flat rtag IN-list, and so must an OR of covers
   against the OR of the flat lists — the executor-level
   version of the proxy contract the differential oracle checks. *)
let test_executor_traverse_matches_flat () =
  let schema =
    Schema.create
      [
        { name = "id"; ty = TInt; nullable = false };
        { name = "v"; ty = TInt; nullable = false };
        { name = "v_rtag"; ty = TInt; nullable = false };
      ]
  in
  let training = Array.init 60 (fun i -> Int64.of_int (i * i mod 97)) in
  let ri = Wre.Range_index.create ~master ~column:"v" ~buckets:6 ~training in
  let rs = Wre.Range_struct.of_index ~master ~column:"v" ri in
  let db = Database.create () in
  let t = Database.create_table db ~name:"vals" ~schema in
  Array.iteri
    (fun i v ->
      ignore
        (Table.insert t
           [| Value.Int (Int64.of_int i); Value.Int v; Value.Int (Wre.Range_index.tag_of_value ri v) |]))
    training;
  ignore (Table.create_index t ~column:"v_rtag");
  Table.set_range_tree t ~column:"v_rtag" (Wre.Range_struct.tree rs);
  let view = Table.freeze t in
  let ranges =
    [ (Some 4L, Some 50L); (Some 0L, Some 0L); (None, Some 30L); (Some 80L, None); (None, None) ]
  in
  List.iter
    (fun (lo, hi) ->
      let cover = Wre.Range_struct.cover rs ~lo ~hi in
      let tags = Wre.Range_index.tags_for_range ri ~lo ~hi in
      let flat_pred = Predicate.In ("v_rtag", List.map (fun g -> Value.Int g) tags) in
      let flat = Executor.run_view view ~projection:Executor.All_columns flat_pred in
      let seq =
        Executor.run_traverse view ~tree:(Wre.Range_struct.tree rs) ~tag_column:"v_rtag"
          ~roots:cover.Wre.Range_struct.roots ~projection:Executor.All_columns flat_pred
      in
      check_bool "traverse plan" true (seq.Executor.plan = Executor.Range_traverse "v_rtag");
      check_bool "traverse rows = flat rows" true (seq.Executor.rows = flat.Executor.rows);
      check_bool "traverse ids = flat ids" true (seq.Executor.row_ids = flat.Executor.row_ids))
    ranges;
  (* A range under OR ships an OR of covers; the view's tree expands
     each leg, so it answers exactly the OR of the flat IN-lists. *)
  let ints = List.map (fun g -> Value.Int g) in
  let cover (lo, hi) =
    let roots = (Wre.Range_struct.cover rs ~lo ~hi).Wre.Range_struct.roots in
    Predicate.In ("v_rtag", ints (Array.to_list roots))
  in
  let flat (lo, hi) = Predicate.In ("v_rtag", ints (Wre.Range_index.tags_for_range ri ~lo ~hi)) in
  let legs = [ (Some 4L, Some 50L); (Some 30L, Some 80L) ] in
  let flat_or =
    Executor.run_view view ~projection:Executor.All_columns (Predicate.Or (List.map flat legs))
  in
  let covers =
    Executor.run_view view ~projection:Executor.All_columns (Predicate.Or (List.map cover legs))
  in
  check_bool "OR of covers ids = OR of flat lists" true
    (covers.Executor.row_ids = flat_or.Executor.row_ids);
  check_bool "OR of covers rows = OR of flat lists" true
    (covers.Executor.rows = flat_or.Executor.rows)

(* [run_traverse] never ignores its [tree]: one that is not the view's
   tree for the column, or no registered tree at all, is refused. *)
let test_traverse_refuses_foreign_tree () =
  let schema = Schema.create [ { name = "v_rtag"; ty = TInt; nullable = false } ] in
  let t = Database.create_table (Database.create ()) ~name:"vals" ~schema in
  let tree () = Wre.Range_struct.tree (Wre.Range_struct.create ~master ~column:"v" ~boundaries:[| 1L |]) in
  let mine = tree () in
  let refused tree =
    match
      Executor.run_traverse (Table.freeze t) ~tree ~tag_column:"v_rtag" ~roots:[||]
        ~projection:Executor.Row_ids Predicate.True
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "no tree registered" true (refused mine);
  Table.set_range_tree t ~column:"v_rtag" mine;
  check_bool "an equal but different tree" true (refused (tree ()));
  check_bool "the view's tree" false (refused mine)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "range"
    [
      ( "properties",
        q [ qcheck_cover_matches_flat; qcheck_traversal_expands_cover; qcheck_rebuild_identical ]
      );
      ( "totality",
        [
          Alcotest.test_case "single bucket" `Quick test_single_bucket;
          Alcotest.test_case "inverted and unbounded ranges" `Quick test_inverted_and_unbounded;
          Alcotest.test_case "unknown roots are total" `Quick test_unknown_root_total;
        ] );
      ("validation", [ Alcotest.test_case "node table validation" `Quick test_make_validation ]);
      ( "executor",
        [
          Alcotest.test_case "traversal matches flat plan" `Quick
            test_executor_traverse_matches_flat;
          Alcotest.test_case "run_traverse refuses a foreign tree" `Quick
            test_traverse_refuses_foreign_tree;
        ] );
    ]
