(* Unit and property tests for the stdx utility library. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Stdx.Prng.create 42L and b = Stdx.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stdx.Prng.int64 a) (Stdx.Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Stdx.Prng.create 1L and b = Stdx.Prng.create 2L in
  let differ = ref false in
  for _ = 1 to 10 do
    if Stdx.Prng.int64 a <> Stdx.Prng.int64 b then differ := true
  done;
  check_bool "streams differ" true !differ

let test_prng_copy_independent () =
  let a = Stdx.Prng.create 7L in
  ignore (Stdx.Prng.int64 a);
  let b = Stdx.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Stdx.Prng.int64 a) (Stdx.Prng.int64 b)

let test_prng_split_differs () =
  let a = Stdx.Prng.create 7L in
  let b = Stdx.Prng.split a in
  check_bool "split stream differs" true (Stdx.Prng.int64 a <> Stdx.Prng.int64 b)

let test_prng_int_bounds () =
  let g = Stdx.Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Stdx.Prng.int g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Stdx.Prng.int g 0))

let test_prng_int_covers_all_residues () =
  let g = Stdx.Prng.create 11L in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    seen.(Stdx.Prng.int g 7) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "residue %d hit" i) true s) seen

let test_prng_float_range () =
  let g = Stdx.Prng.create 5L in
  for _ = 1 to 1000 do
    let f = Stdx.Prng.float g in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_float_mean () =
  let g = Stdx.Prng.create 9L in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Stdx.Prng.float g
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_prng_export_restore () =
  let g = Stdx.Prng.create 17L in
  for _ = 1 to 100 do
    ignore (Stdx.Prng.int64 g)
  done;
  let state = Stdx.Prng.export g in
  Alcotest.(check int) "export is 32 bytes" 32 (String.length state);
  (* The continuation from an exported state must equal the original
     stream — this is what lets a reopened store resume salt choices. *)
  let h = Stdx.Prng.import state in
  let expected = Array.init 50 (fun _ -> Stdx.Prng.int64 g) in
  Array.iter (fun v -> Alcotest.(check int64) "import continues stream" v (Stdx.Prng.int64 h)) expected;
  (* restore overwrites in place: rewind g back to the checkpoint. *)
  Stdx.Prng.restore g state;
  Array.iter (fun v -> Alcotest.(check int64) "restore rewinds stream" v (Stdx.Prng.int64 g)) expected;
  Alcotest.check_raises "wrong length rejected"
    (Invalid_argument "Prng.restore: state must be 32 bytes") (fun () ->
      Stdx.Prng.restore g "short");
  Alcotest.check_raises "all-zero rejected"
    (Invalid_argument "Prng.restore: all-zero state is not a valid xoshiro state") (fun () ->
      Stdx.Prng.restore g (String.make 32 '\000'))

let test_prng_bytes () =
  let g = Stdx.Prng.create 13L in
  let b = Stdx.Prng.bytes g 33 in
  check_int "length" 33 (Bytes.length b);
  let b2 = Stdx.Prng.bytes g 33 in
  check_bool "subsequent buffers differ" true (b <> b2)

let test_splitmix_known () =
  (* splitmix64(seed=0) first output, cross-checked against the
     reference implementation. *)
  let sm = Stdx.Prng.Splitmix.create 0L in
  Alcotest.(check int64) "first" 0xE220A8397B1DCDAFL (Stdx.Prng.Splitmix.next sm)

(* ---------------- Vec ---------------- *)

let test_vec_push_get () =
  let v = Stdx.Vec.create () in
  for i = 0 to 99 do
    Stdx.Vec.push v (i * i)
  done;
  check_int "length" 100 (Stdx.Vec.length v);
  check_int "get 7" 49 (Stdx.Vec.get v 7);
  Stdx.Vec.set v 7 0;
  check_int "set" 0 (Stdx.Vec.get v 7)

let test_vec_bounds () =
  let v = Stdx.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index -1 out of bounds (len 3)")
    (fun () -> ignore (Stdx.Vec.get v (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Vec: index 3 out of bounds (len 3)")
    (fun () -> ignore (Stdx.Vec.get v 3))

let test_vec_pop () =
  let v = Stdx.Vec.of_list [ 1; 2 ] in
  Alcotest.(check (option int)) "pop 2" (Some 2) (Stdx.Vec.pop v);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Stdx.Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Stdx.Vec.pop v)

let test_vec_iter_fold_map () =
  let v = Stdx.Vec.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Stdx.Vec.fold_left ( + ) 0 v);
  let doubled = Stdx.Vec.map (fun x -> 2 * x) v in
  Alcotest.(check (list int)) "map" [ 2; 4; 6; 8 ] (Stdx.Vec.to_list doubled);
  let acc = ref [] in
  Stdx.Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check_int "iteri count" 4 (List.length !acc);
  check_bool "exists" true (Stdx.Vec.exists (fun x -> x = 3) v);
  check_bool "not exists" false (Stdx.Vec.exists (fun x -> x = 9) v)

let test_vec_sort_clear () =
  let v = Stdx.Vec.of_list [ 3; 1; 2 ] in
  Stdx.Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Stdx.Vec.to_list v);
  Stdx.Vec.clear v;
  check_bool "empty" true (Stdx.Vec.is_empty v)

(* ---------------- Stats ---------------- *)

let test_stats_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stdx.Stats.mean xs);
  check_float "variance" (32.0 /. 7.0) (Stdx.Stats.variance xs);
  check_float "stddev" (sqrt (32.0 /. 7.0)) (Stdx.Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stdx.Stats.median xs);
  check_float "p0" 1.0 (Stdx.Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stdx.Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stdx.Stats.percentile xs 25.0)

let test_stats_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_float "perfect" 1.0 (Stdx.Stats.pearson xs ys);
  let zs = [| 8.0; 6.0; 4.0; 2.0 |] in
  check_float "anti" (-1.0) (Stdx.Stats.pearson xs zs);
  check_bool "constant is nan" true (Float.is_nan (Stdx.Stats.pearson xs [| 1.0; 1.0; 1.0; 1.0 |]))

let test_stats_spearman () =
  (* Monotone but nonlinear: Spearman 1, Pearson < 1. *)
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = Array.map (fun x -> exp x) xs in
  check_float "spearman" 1.0 (Stdx.Stats.spearman xs ys);
  check_bool "pearson below" true (Stdx.Stats.pearson xs ys < 1.0)

let test_stats_histogram () =
  let xs = [| 0.0; 0.1; 0.5; 0.9; 1.0 |] in
  let h = Stdx.Stats.histogram ~bins:2 xs in
  check_int "total preserved" 5 (Array.fold_left ( + ) 0 h.counts);
  check_float "lo" 0.0 h.lo;
  check_float "hi" 1.0 h.hi

let test_stats_total_variation () =
  check_float "identical" 0.0 (Stdx.Stats.total_variation [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  check_float "disjoint" 1.0 (Stdx.Stats.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |]);
  check_float "half" 0.5 (Stdx.Stats.total_variation [| 1.0; 0.0 |] [| 0.5; 0.5 |])

(* ---------------- Sampling ---------------- *)

let chi_square_uniformity counts expected =
  let acc = ref 0.0 in
  Array.iter (fun c -> acc := !acc +. (((float_of_int c -. expected) ** 2.0) /. expected)) counts;
  !acc

(* Draws from an alias table over [w]: frequencies follow the weights,
   unnormalized ones included, and a zero-weight index is never drawn. *)
let check_alias_frequencies seed w =
  let g = Stdx.Prng.create seed in
  let total = Array.fold_left ( +. ) 0.0 w in
  let alias = Stdx.Sampling.Alias.create w in
  check_int "size" (Array.length w) (Stdx.Sampling.Alias.size alias);
  let n = 40000 in
  let counts = Array.make (Array.length w) 0 in
  for _ = 1 to n do
    let i = Stdx.Sampling.Alias.sample alias g in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int n in
      check_bool (Printf.sprintf "weight %d" i) true (Float.abs (freq -. (w.(i) /. total)) < 0.02);
      if w.(i) = 0.0 then check_int (Printf.sprintf "zero weight %d never drawn" i) 0 c)
    counts

let test_alias_matches_weights () = check_alias_frequencies 23L [| 0.1; 0.2; 0.3; 0.4 |]

let test_alias_single () =
  let g = Stdx.Prng.create 29L in
  let alias = Stdx.Sampling.Alias.create [| 5.0 |] in
  check_int "only index" 0 (Stdx.Sampling.Alias.sample alias g);
  check_int "size" 1 (Stdx.Sampling.Alias.size alias)

(* The zero-weight and bad-input cases below are named after the
   inverse-CDF samplers ([weighted], [Cdf]) they were first written
   for; [Alias] replaced both and now runs every one of them. *)
let test_weighted_respects_zero () = check_alias_frequencies 17L [| 0.0; 1.0; 0.0 |]
let test_cdf_respects_zero () = check_alias_frequencies 43L [| 0.0; 3.0; 0.0; 7.0 |]

let test_weighted_rejects_bad_input () =
  Alcotest.check_raises "negative" (Invalid_argument "Sampling: negative or NaN weight")
    (fun () -> ignore (Stdx.Sampling.Alias.create [| 1.0; -1.0 |]));
  Alcotest.check_raises "NaN" (Invalid_argument "Sampling: negative or NaN weight") (fun () ->
      ignore (Stdx.Sampling.Alias.create [| 1.0; Float.nan |]))

let test_cdf_rejects_bad_input () =
  Alcotest.check_raises "zero sum" (Invalid_argument "Sampling: weights must have positive sum")
    (fun () -> ignore (Stdx.Sampling.Alias.create [| 0.0; 0.0 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights") (fun () ->
      ignore (Stdx.Sampling.Alias.create [||]))

(* ---------------- Task_pool ---------------- *)

let test_pool_parallel_init_matches () =
  let f i = (i * i) + 3 in
  List.iter
    (fun domains ->
      Stdx.Task_pool.with_pool ~domains (fun pool ->
          check_int "domains" domains (Stdx.Task_pool.domains pool);
          Alcotest.(check (array int))
            (Printf.sprintf "%d domains" domains)
            (Array.init 97 f)
            (Stdx.Task_pool.parallel_init pool 97 f);
          Alcotest.(check (array int)) "empty" [||] (Stdx.Task_pool.parallel_init pool 0 f)))
    [ 1; 2; 4 ]

let test_pool_propagates_exception () =
  Stdx.Task_pool.with_pool ~domains:2 (fun pool ->
      check_bool "raises" true
        (match
           Stdx.Task_pool.parallel_init pool 8 (fun i ->
               if i = 5 then failwith "boom" else i)
         with
        | (_ : int array) -> false
        | exception Failure msg -> msg = "boom");
      (* The pool survives a failed batch. *)
      Alcotest.(check (array int))
        "still usable" (Array.init 4 Fun.id)
        (Stdx.Task_pool.parallel_init pool 4 Fun.id))

let test_pool_rejects_bad_args () =
  check_bool "domains < 1" true
    (match Stdx.Task_pool.with_pool ~domains:0 (fun _ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

exception Chunk_died

(* Regression (PR 7): the old re-raise used [raise], which rewrote the
   backtrace to point at [parallel_init] itself. The backtrace must
   reach back into the chunk that died. *)
let[@inline never] chunk_that_dies () = raise Chunk_died

let test_pool_preserves_backtrace () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      Stdx.Task_pool.with_pool ~domains:2 (fun pool ->
          match
            Stdx.Task_pool.parallel_init pool 8 (fun i ->
                if i = 3 then chunk_that_dies () else i)
          with
          | (_ : int array) -> Alcotest.fail "expected Chunk_died"
          | exception Chunk_died ->
              let bt = Printexc.get_backtrace () in
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
                go 0
              in
              check_bool
                (Printf.sprintf "backtrace reaches the chunk: %s" bt)
                true
                (contains bt "test_stdx")))

(* Regression (PR 7): a concurrent shutdown makes [submit] raise after
   [pending] was already set; the old code then waited forever for
   helpers that never reached the queue. The call must raise promptly
   instead of deadlocking. *)
let test_pool_submit_failure_does_not_deadlock () =
  let pool = Stdx.Task_pool.create ~domains:4 in
  Stdx.Task_pool.shutdown pool;
  check_bool "raises Invalid_argument" true
    (match Stdx.Task_pool.parallel_init pool 8 Fun.id with
    | (_ : int array) -> false
    | exception Invalid_argument _ -> true)

(* ---------------- Clock ---------------- *)

let test_clock_monotonic () =
  let prev = ref (Stdx.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Stdx.Clock.now_ns () in
    check_bool "non-decreasing" true (t >= !prev);
    prev := t
  done;
  let (), ns = Stdx.Clock.time_it (fun () -> Sys.opaque_identity (ignore (Array.init 1000 Fun.id))) in
  check_bool "time_it non-negative" true (ns >= 0.0)

let test_shuffle_is_permutation () =
  let g = Stdx.Prng.create 31L in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Stdx.Sampling.shuffle g b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" a sorted;
  check_bool "actually shuffled" true (b <> a)

let test_shuffle_uniform_position () =
  (* Element 0's final position should be ~uniform. *)
  let g = Stdx.Prng.create 37L in
  let n = 5 and trials = 20000 in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    let a = Array.init n Fun.id in
    Stdx.Sampling.shuffle g a;
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) a;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  let expected = float_of_int trials /. float_of_int n in
  check_bool "chi-square small" true (chi_square_uniformity counts expected < 20.0)

(* ---------------- Bytes_util ---------------- *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xffABC" in
  Alcotest.(check string) "roundtrip" s (Stdx.Bytes_util.of_hex (Stdx.Bytes_util.to_hex s));
  Alcotest.(check string) "known" "00" (Stdx.Bytes_util.to_hex "\x00")

let test_hex_rejects () =
  Alcotest.check_raises "odd" (Invalid_argument "Bytes_util.of_hex: odd length") (fun () ->
      ignore (Stdx.Bytes_util.of_hex "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bytes_util.of_hex: not a hex digit")
    (fun () -> ignore (Stdx.Bytes_util.of_hex "zz"))

let test_u64_roundtrip () =
  let b = Bytes.create 8 in
  Stdx.Bytes_util.put_u64_be b 0 0x0123456789ABCDEFL;
  Alcotest.(check int64) "be" 0x0123456789ABCDEFL
    (Stdx.Bytes_util.get_u64_be (Bytes.to_string b) 0);
  Stdx.Bytes_util.put_u64_le b 0 0x0123456789ABCDEFL;
  Alcotest.(check int64) "le" 0x0123456789ABCDEFL
    (Stdx.Bytes_util.get_u64_le (Bytes.to_string b) 0)

let test_length_prefixed_unambiguous () =
  let a = Stdx.Bytes_util.length_prefixed [ "ab"; "c" ] in
  let b = Stdx.Bytes_util.length_prefixed [ "a"; "bc" ] in
  check_bool "different splits differ" true (a <> b)

let test_xor_into () =
  let dst = Bytes.of_string "\x0f\x0f" in
  Stdx.Bytes_util.xor_into ~src:"\xff\x00" ~dst ~len:2;
  Alcotest.(check string) "xored" "\xf0\x0f" (Bytes.to_string dst)

let test_ct_equal () =
  let ct = Stdx.Bytes_util.ct_equal in
  check_bool "equal" true (ct "abcdef" "abcdef");
  check_bool "empty" true (ct "" "");
  check_bool "differs mid" false (ct "abcdef" "abcxef");
  check_bool "differs first byte" false (ct "\x00bcd" "\x01bcd");
  check_bool "differs last byte" false (ct "abcd\x00" "abcd\x01");
  check_bool "length mismatch" false (ct "abc" "abcd");
  check_bool "prefix vs empty" false (ct "" "a");
  check_bool "high bytes" true (ct "\xff\x80\x7f" "\xff\x80\x7f")

(* ---------------- Table_fmt ---------------- *)

let test_table_fmt () =
  let t = Stdx.Table_fmt.create [ "a"; "long-header" ] in
  Stdx.Table_fmt.add_row t [ "x" ];
  Stdx.Table_fmt.add_row t [ "yy"; "z" ];
  let out = Stdx.Table_fmt.render t in
  check_bool "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  Alcotest.check_raises "too many cells" (Invalid_argument "Table_fmt.add_row: too many cells")
    (fun () -> Stdx.Table_fmt.add_row t [ "1"; "2"; "3" ])

(* ---------------- QCheck properties ---------------- *)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip on random strings" ~count:200 QCheck.string (fun s ->
      Stdx.Bytes_util.of_hex (Stdx.Bytes_util.to_hex s) = s)

let qcheck_ct_equal_agrees =
  QCheck.Test.make ~name:"ct_equal agrees with structural equality" ~count:500
    QCheck.(pair string string)
    (fun (a, b) -> Stdx.Bytes_util.ct_equal a b = (a = b))

let qcheck_length_prefixed_injective =
  QCheck.Test.make ~name:"length_prefixed is injective" ~count:200
    QCheck.(pair (list string) (list string))
    (fun (a, b) ->
      if a = b then true
      else Stdx.Bytes_util.length_prefixed a <> Stdx.Bytes_util.length_prefixed b)

let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Stdx.Vec.to_list (Stdx.Vec.of_list l) = l)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let v = Stdx.Stats.percentile xs p in
      let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let qcheck_alias_in_range =
  QCheck.Test.make ~name:"alias sample within range" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.01 10.0))
    (fun l ->
      let w = Array.of_list l in
      let alias = Stdx.Sampling.Alias.create w in
      let g = Stdx.Prng.create 1L in
      let ok = ref true in
      for _ = 1 to 50 do
        let i = Stdx.Sampling.Alias.sample alias g in
        if i < 0 || i >= Array.length w then ok := false
      done;
      !ok)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_differs;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int covers residues" `Quick test_prng_int_covers_all_residues;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "export/restore" `Quick test_prng_export_restore;
          Alcotest.test_case "bytes" `Quick test_prng_bytes;
          Alcotest.test_case "splitmix vector" `Quick test_splitmix_known;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "iter/fold/map" `Quick test_vec_iter_fold_map;
          Alcotest.test_case "sort/clear" `Quick test_vec_sort_clear;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "spearman" `Quick test_stats_spearman;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "total variation" `Quick test_stats_total_variation;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "weighted zero weight" `Quick test_weighted_respects_zero;
          Alcotest.test_case "weighted bad input" `Quick test_weighted_rejects_bad_input;
          Alcotest.test_case "alias frequencies" `Quick test_alias_matches_weights;
          Alcotest.test_case "alias single" `Quick test_alias_single;
          Alcotest.test_case "cdf zero weight" `Quick test_cdf_respects_zero;
          Alcotest.test_case "cdf bad input" `Quick test_cdf_rejects_bad_input;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle uniformity" `Quick test_shuffle_uniform_position;
        ] );
      ( "bytes_util",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex rejects" `Quick test_hex_rejects;
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "length_prefixed" `Quick test_length_prefixed_unambiguous;
          Alcotest.test_case "xor_into" `Quick test_xor_into;
          Alcotest.test_case "ct_equal" `Quick test_ct_equal;
        ] );
      ("table_fmt", [ Alcotest.test_case "render" `Quick test_table_fmt ]);
      ( "task_pool",
        [
          Alcotest.test_case "parallel_init matches Array.init" `Quick
            test_pool_parallel_init_matches;
          Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
          Alcotest.test_case "bad args" `Quick test_pool_rejects_bad_args;
          Alcotest.test_case "backtrace preserved" `Quick test_pool_preserves_backtrace;
          Alcotest.test_case "submit failure no deadlock" `Quick
            test_pool_submit_failure_does_not_deadlock;
        ] );
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "properties",
        q
          [
            qcheck_hex_roundtrip;
            qcheck_ct_equal_agrees;
            qcheck_length_prefixed_injective;
            qcheck_vec_roundtrip;
            qcheck_percentile_bounds;
            qcheck_alias_in_range;
          ] );
    ]
