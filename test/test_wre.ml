(* Core WRE tests: scheme parsing, every salt allocator's invariants,
   Algorithm 2's bucket layout, the column encryptor's Enc/Dec/Search
   contract, and the encrypted-database integration for all five
   schemes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let master = Crypto.Keys.of_raw ~k0:(String.make 16 '0') ~k1:(String.make 32 '1')

let small_dist =
  Dist.Empirical.of_counts [ ("alpha", 50); ("beta", 30); ("gamma", 15); ("delta", 5) ]

let all_kinds =
  [
    Wre.Scheme.Det;
    Wre.Scheme.Fixed 8;
    Wre.Scheme.Proportional 100;
    Wre.Scheme.Poisson 200.0;
    Wre.Scheme.Bucketized 200.0;
  ]

(* ---------------- Scheme ---------------- *)

let test_scheme_string_roundtrip () =
  List.iter
    (fun kind ->
      match Wre.Scheme.of_string (Wre.Scheme.to_string kind) with
      | Ok k -> check_bool (Wre.Scheme.to_string kind) true (k = kind)
      | Error e -> Alcotest.fail e)
    (all_kinds @ [ Wre.Scheme.Poisson 1500.5 ]);
  check_bool "garbage rejected" true (Result.is_error (Wre.Scheme.of_string "nonsense"));
  check_bool "bad param rejected" true (Result.is_error (Wre.Scheme.of_string "fixed-xyz"))

let test_scheme_expected_tags () =
  check_float "det" 1.0 (Wre.Scheme.expected_tags_per_plaintext Wre.Scheme.Det ~dist:small_dist "alpha");
  check_float "fixed" 8.0
    (Wre.Scheme.expected_tags_per_plaintext (Wre.Scheme.Fixed 8) ~dist:small_dist "alpha");
  check_float "proportional" 50.0
    (Wre.Scheme.expected_tags_per_plaintext (Wre.Scheme.Proportional 100) ~dist:small_dist "alpha");
  check_float "poisson" 101.0
    (Wre.Scheme.expected_tags_per_plaintext (Wre.Scheme.Poisson 200.0) ~dist:small_dist "alpha");
  check_bool "bucketized flag" true (Wre.Scheme.is_bucketized (Wre.Scheme.Bucketized 1.0));
  check_bool "poisson not bucketized" false (Wre.Scheme.is_bucketized (Wre.Scheme.Poisson 1.0))

(* ---------------- Salts ---------------- *)

let test_salts_det () =
  check_bool "valid" true (Wre.Salts.validate Wre.Salts.det = Ok ());
  check_int "one salt" 1 (Array.length Wre.Salts.det.salts)

let test_salts_fixed () =
  let s = Wre.Salts.fixed ~n:10 in
  check_bool "valid" true (Wre.Salts.validate s = Ok ());
  check_int "ten salts" 10 (Array.length s.salts);
  check_float "uniform" 0.1 s.weights.(3);
  Alcotest.check_raises "zero rejected" (Invalid_argument "Salts.fixed: need at least one salt")
    (fun () -> ignore (Wre.Salts.fixed ~n:0))

let test_salts_proportional () =
  let s = Wre.Salts.proportional ~total_tags:100 ~prob:0.3 in
  check_int "30 salts" 30 (Array.length s.salts);
  (* Rare plaintexts still get one salt. *)
  let tiny = Wre.Salts.proportional ~total_tags:100 ~prob:0.001 in
  check_int "at least one" 1 (Array.length tiny.salts);
  check_bool "valid" true (Wre.Salts.validate s = Ok ())

let test_salts_proportional_aliasing () =
  (* The paper's §V-B example: P = {0.7, 0.3}. N_T = 10 divides evenly;
     N_T = 12 rounds to 8 and 4 salts with different per-tag
     frequencies — the aliasing defect, preserved by design. *)
  let a1 = Wre.Salts.proportional ~total_tags:10 ~prob:0.7 in
  let a2 = Wre.Salts.proportional ~total_tags:10 ~prob:0.3 in
  check_float "even split per-tag frequency" (0.7 /. 7.0) (0.3 /. float_of_int (Array.length a2.salts));
  ignore a1;
  let b1 = Wre.Salts.proportional ~total_tags:12 ~prob:0.7 in
  let b2 = Wre.Salts.proportional ~total_tags:12 ~prob:0.3 in
  check_int "8 salts" 8 (Array.length b1.salts);
  check_int "4 salts" 4 (Array.length b2.salts);
  check_bool "per-tag frequencies differ (aliasing)" true
    (Float.abs ((0.7 /. 8.0) -. (0.3 /. 4.0)) > 0.01)

let test_salts_poisson_deterministic () =
  let a = Wre.Salts.poisson ~seed:"seed-a" ~lambda:500.0 ~prob:0.2 in
  let b = Wre.Salts.poisson ~seed:"seed-a" ~lambda:500.0 ~prob:0.2 in
  check_bool "same seed same salts" true (a = b);
  let c = Wre.Salts.poisson ~seed:"seed-b" ~lambda:500.0 ~prob:0.2 in
  check_bool "different seed differs" true (a <> c);
  check_bool "valid" true (Wre.Salts.validate a = Ok ())

let test_salts_poisson_count_scales_with_lambda () =
  (* E[#salts] = lambda * prob + 1. Average over seeds. *)
  let avg lambda =
    let total = ref 0 in
    for i = 0 to 199 do
      let s = Wre.Salts.poisson ~seed:(Printf.sprintf "s%d" i) ~lambda ~prob:0.1 in
      total := !total + Array.length s.salts
    done;
    float_of_int !total /. 200.0
  in
  check_bool "lambda 100 ~ 11" true (Float.abs (avg 100.0 -. 11.0) < 2.0);
  check_bool "lambda 1000 ~ 101" true (Float.abs (avg 1000.0 -. 101.0) < 10.0)

let test_salts_validate_catches_errors () =
  check_bool "dup salts" true
    (Result.is_error
       (Wre.Salts.validate (Wre.Salts.make ~salts:[| 1; 1 |] ~weights:[| 0.5; 0.5 |])));
  check_bool "bad sum" true
    (Result.is_error
       (Wre.Salts.validate (Wre.Salts.make ~salts:[| 1; 2 |] ~weights:[| 0.5; 0.6 |])));
  check_bool "negative weight" true
    (Result.is_error
       (Wre.Salts.validate (Wre.Salts.make ~salts:[| 1; 2 |] ~weights:[| 1.5; -0.5 |])))

let test_salts_poisson_first_interarrival_exponential () =
  (* The theory behind §V-C: the FIRST interarrival of each message's
     Poisson process is an unconditional Exponential(λ) draw, capped at
     P_M(m) (later slots are boundary-conditioned, so only the first is
     testable without bias). Pool first slots across messages and
     KS-test the uncapped ones against the truncated Exponential CDF. *)
  let lambda = 400.0 and prob = 0.05 in
  let firsts = ref [] and capped = ref 0 in
  let n_msgs = 3000 in
  for i = 0 to n_msgs - 1 do
    let s = Wre.Salts.poisson ~seed:(Printf.sprintf "ks%d" i) ~lambda ~prob in
    let w0 = s.Wre.Salts.weights.(0) *. prob in
    if Array.length s.Wre.Salts.weights = 1 then incr capped else firsts := w0 :: !firsts
  done;
  (* P(capped) = e^{-lambda * prob} = e^{-20}: essentially never. *)
  check_bool "capped fraction negligible" true (!capped < 3);
  let xs = Array.of_list !firsts in
  let z = Dist.Exponential.cdf ~rate:lambda prob in
  let truncated_cdf x = Dist.Exponential.cdf ~rate:lambda x /. z in
  let d = Dist.Stat_tests.ks_statistic xs ~cdf:truncated_cdf in
  check_bool "KS passes at 0.1%" true
    (d < Dist.Stat_tests.ks_critical ~n:(Array.length xs) ~alpha:0.001)

(* ---------------- Bucket layout (Algorithm 2) ---------------- *)

let make_layout ?(lambda = 100.0) ?(dist = small_dist) () =
  Wre.Bucket_layout.create ~seed:"layout-seed" ~shuffle_key:"shuffle-key" ~column:"col" ~dist
    ~lambda

let test_layout_widths_sum_to_one () =
  let l = make_layout () in
  check_bool "validates" true (Wre.Bucket_layout.validate l = Ok ());
  check_float "widths sum" 1.0 (Array.fold_left ( +. ) 0.0 (Wre.Bucket_layout.bucket_widths l));
  check_bool "bucket count near lambda" true
    (abs (Wre.Bucket_layout.bucket_count l - 100) < 40)

let test_layout_covers_support () =
  let l = make_layout () in
  Array.iter
    (fun m ->
      match Wre.Bucket_layout.salts_for l m with
      | None -> Alcotest.fail ("no salts for " ^ m)
      | Some s -> check_bool (m ^ " valid") true (Wre.Salts.validate s = Ok ()))
    (Dist.Empirical.support small_dist);
  check_bool "outside support" true (Wre.Bucket_layout.salts_for l "unknown" = None)

let test_layout_deterministic () =
  let a = make_layout () and b = make_layout () in
  Array.iter
    (fun m ->
      check_bool (m ^ " same") true
        (Wre.Bucket_layout.salts_for a m = Wre.Bucket_layout.salts_for b m))
    (Dist.Empirical.support small_dist)

let test_layout_salt_count_tracks_probability () =
  (* A plaintext of probability p overlaps ≈ λp + 1 buckets. *)
  let l = make_layout ~lambda:1000.0 () in
  let count m = Array.length (Option.get (Wre.Bucket_layout.salts_for l m)).Wre.Salts.salts in
  check_bool "alpha ~ 501" true (abs (count "alpha" - 501) < 120);
  check_bool "delta ~ 51" true (abs (count "delta" - 51) < 40);
  check_bool "alpha gets more buckets" true (count "alpha" > count "delta")

let test_layout_shared_buckets_exist () =
  (* With few buckets, adjacent plaintexts must share boundary buckets:
     that sharing is what creates false positives. *)
  let l = make_layout ~lambda:20.0 () in
  let shared = ref false in
  for b = 0 to Wre.Bucket_layout.bucket_count l - 1 do
    if List.length (Wre.Bucket_layout.messages_sharing l b) > 1 then shared := true
  done;
  check_bool "at least one shared bucket" true !shared

let test_layout_returned_mass_bounds () =
  let l = make_layout ~lambda:100.0 () in
  Array.iter
    (fun m ->
      let p = Dist.Empirical.prob small_dist m in
      let mass = Wre.Bucket_layout.returned_mass l m in
      check_bool (m ^ " mass >= p") true (mass >= p -. 1e-9);
      check_bool (m ^ " mass <= 1") true (mass <= 1.0 +. 1e-9))
    (Dist.Empirical.support small_dist)

let test_layout_fp_mass_shrinks_with_lambda () =
  let fp lambda =
    let l = make_layout ~lambda () in
    Array.fold_left
      (fun acc m ->
        acc +. (Wre.Bucket_layout.returned_mass l m -. Dist.Empirical.prob small_dist m))
      0.0
      (Dist.Empirical.support small_dist)
  in
  check_bool "lambda 1000 < lambda 20" true (fp 1000.0 < fp 20.0)

let test_layout_tag_frequencies_data_independent () =
  (* The same seed with two very different plaintext distributions must
     produce identical bucket widths — that is Theorem V.1's core. *)
  let d1 = small_dist in
  let d2 = Dist.Empirical.of_counts [ ("x", 99); ("y", 1) ] in
  let l1 =
    Wre.Bucket_layout.create ~seed:"s" ~shuffle_key:"k" ~column:"c" ~dist:d1 ~lambda:100.0
  in
  let l2 =
    Wre.Bucket_layout.create ~seed:"s" ~shuffle_key:"k" ~column:"c" ~dist:d2 ~lambda:100.0
  in
  Alcotest.(check (array (float 1e-12)))
    "identical widths" (Wre.Bucket_layout.bucket_widths l1) (Wre.Bucket_layout.bucket_widths l2)

(* ---------------- Value codec ---------------- *)

let test_codec_roundtrip () =
  List.iter
    (fun v ->
      check_bool (Sqldb.Value.to_string v) true
        (Wre.Value_codec.decode_exn (Wre.Value_codec.encode v) = v))
    [
      Sqldb.Value.Null;
      Sqldb.Value.Int 0L;
      Sqldb.Value.Int (-1L);
      Sqldb.Value.Int Int64.max_int;
      Sqldb.Value.Real 3.14159;
      Sqldb.Value.Real (-0.0);
      Sqldb.Value.Real infinity;
      Sqldb.Value.Text "";
      Sqldb.Value.Text "hello \x00 world";
      Sqldb.Value.Blob "\x01\x02\x03";
    ]

let test_codec_rejects_malformed () =
  check_bool "empty" true (Result.is_error (Wre.Value_codec.decode ""));
  check_bool "unknown tag" true (Result.is_error (Wre.Value_codec.decode "Zxx"));
  check_bool "short int" true (Result.is_error (Wre.Value_codec.decode "I123"));
  check_bool "trailing null" true (Result.is_error (Wre.Value_codec.decode "Nx"))

(* ---------------- Column encryptor ---------------- *)

let test_column_enc_roundtrip_all_kinds () =
  let g = Stdx.Prng.create 1L in
  List.iter
    (fun kind ->
      let enc = Wre.Column_enc.create ~master ~column:"c" ~kind ~dist:small_dist () in
      Array.iter
        (fun m ->
          let tag, ct = Wre.Column_enc.encrypt enc g m in
          Alcotest.(check string) "decrypts" m (Wre.Column_enc.decrypt enc ct);
          let tags = Wre.Column_enc.search_tags enc m in
          check_bool
            (Printf.sprintf "%s: tag of %s in search set" (Wre.Scheme.to_string kind) m)
            true (List.mem tag tags))
        (Dist.Empirical.support small_dist))
    all_kinds

let test_column_enc_randomized_ciphertexts () =
  let g = Stdx.Prng.create 2L in
  let enc = Wre.Column_enc.create ~master ~column:"c" ~kind:Wre.Scheme.Det ~dist:small_dist () in
  let _, c1 = Wre.Column_enc.encrypt enc g "alpha" in
  let _, c2 = Wre.Column_enc.encrypt enc g "alpha" in
  check_bool "ciphertexts differ" true (c1 <> c2)

let test_column_enc_det_single_tag () =
  let g = Stdx.Prng.create 3L in
  let enc = Wre.Column_enc.create ~master ~column:"c" ~kind:Wre.Scheme.Det ~dist:small_dist () in
  let t1, _ = Wre.Column_enc.encrypt enc g "alpha" in
  let t2, _ = Wre.Column_enc.encrypt enc g "alpha" in
  Alcotest.(check int64) "deterministic tag" t1 t2;
  check_int "one search tag" 1 (List.length (Wre.Column_enc.search_tags enc "alpha"))

let test_column_enc_unknown_plaintext () =
  let g = Stdx.Prng.create 4L in
  List.iter
    (fun kind ->
      let enc = Wre.Column_enc.create ~master ~column:"c" ~kind ~dist:small_dist () in
      let raised =
        try
          ignore (Wre.Column_enc.encrypt enc g "not-in-dist");
          false
        with Wre.Column_enc.Unknown_plaintext _ -> true
      in
      check_bool (Wre.Scheme.to_string kind ^ " raises") true raised;
      check_bool "search returns empty" true (Wre.Column_enc.search_tags enc "not-in-dist" = []))
    [ Wre.Scheme.Proportional 100; Wre.Scheme.Poisson 100.0; Wre.Scheme.Bucketized 100.0 ];
  (* Distribution-independent schemes accept anything. *)
  List.iter
    (fun kind ->
      let enc = Wre.Column_enc.create ~master ~column:"c" ~kind ~dist:small_dist () in
      let tag, _ = Wre.Column_enc.encrypt enc g "novel" in
      check_bool "searchable" true (List.mem tag (Wre.Column_enc.search_tags enc "novel")))
    [ Wre.Scheme.Det; Wre.Scheme.Fixed 4 ]

let test_column_enc_fallback_min_frequency () =
  (* The `Min_frequency update policy: plaintexts outside the profiled
     distribution become encryptable and searchable under every
     scheme. *)
  let g = Stdx.Prng.create 41L in
  List.iter
    (fun kind ->
      let enc =
        Wre.Column_enc.create ~fallback:`Min_frequency ~master ~column:"c" ~kind ~dist:small_dist
          ()
      in
      let tag, ct = Wre.Column_enc.encrypt enc g "novel-value" in
      Alcotest.(check string) "roundtrips" "novel-value" (Wre.Column_enc.decrypt enc ct);
      check_bool
        (Wre.Scheme.to_string kind ^ " searchable")
        true
        (List.mem tag (Wre.Column_enc.search_tags enc "novel-value"));
      (* Known plaintexts keep their normal salt sets. *)
      check_bool "known value unaffected" true
        (Wre.Column_enc.search_tags enc "alpha"
        = Wre.Column_enc.search_tags
            (Wre.Column_enc.create ~master ~column:"c" ~kind ~dist:small_dist ())
            "alpha"))
    all_kinds

let test_column_enc_fallback_poisson_salt_count () =
  (* Fallback Poisson salts are allocated on [0, tau]. *)
  let enc =
    Wre.Column_enc.create ~fallback:`Min_frequency ~master ~column:"c"
      ~kind:(Wre.Scheme.Poisson 2000.0) ~dist:small_dist ()
  in
  let tau = Dist.Empirical.min_prob small_dist in
  let n = List.length (Wre.Column_enc.search_tags enc "novel") in
  check_bool "roughly lambda*tau+1 tags" true
    (float_of_int n < (2.0 *. (2000.0 *. tau)) +. 10.0);
  check_bool "at least one tag" true (n >= 1)

let test_column_enc_fallback_bucketized_existing_bucket () =
  (* Bucketized fallback maps a novel value onto one existing bucket, so
     its tag collides with some profiled plaintext's tag set — it hides
     in the existing tag distribution rather than creating a fresh
     identifying tag. *)
  let enc =
    Wre.Column_enc.create ~fallback:`Min_frequency ~master ~column:"c"
      ~kind:(Wre.Scheme.Bucketized 50.0) ~dist:small_dist ()
  in
  let novel_tags = Wre.Column_enc.search_tags enc "novel" in
  check_int "single bucket" 1 (List.length novel_tags);
  let all_known_tags =
    List.concat_map (fun m -> Wre.Column_enc.search_tags enc m)
      (Array.to_list (Dist.Empirical.support small_dist))
  in
  check_bool "tag is an existing bucket tag" true
    (List.mem (List.hd novel_tags) all_known_tags)

let test_column_enc_column_isolation () =
  let g = Stdx.Prng.create 5L in
  let e1 = Wre.Column_enc.create ~master ~column:"c1" ~kind:Wre.Scheme.Det ~dist:small_dist () in
  let e2 = Wre.Column_enc.create ~master ~column:"c2" ~kind:Wre.Scheme.Det ~dist:small_dist () in
  let t1, _ = Wre.Column_enc.encrypt e1 g "alpha" in
  let t2, _ = Wre.Column_enc.encrypt e2 g "alpha" in
  check_bool "tags differ across columns" true (t1 <> t2)

let test_column_enc_bucketized_layout_exposed () =
  let enc =
    Wre.Column_enc.create ~master ~column:"c" ~kind:(Wre.Scheme.Bucketized 100.0) ~dist:small_dist ()
  in
  check_bool "layout present" true (Wre.Column_enc.bucket_layout enc <> None);
  let det = Wre.Column_enc.create ~master ~column:"c" ~kind:Wre.Scheme.Det ~dist:small_dist () in
  check_bool "no layout for det" true (Wre.Column_enc.bucket_layout det = None)

let test_column_enc_bucketized_shared_tags () =
  (* Under bucketized encryption, the tag sets of adjacent plaintexts
     can overlap; under per-message schemes they never do. *)
  let enc =
    Wre.Column_enc.create ~master ~column:"c" ~kind:(Wre.Scheme.Bucketized 10.0) ~dist:small_dist ()
  in
  let all_tags =
    List.concat_map (fun m -> Wre.Column_enc.search_tags enc m)
      (Array.to_list (Dist.Empirical.support small_dist))
  in
  let distinct = List.sort_uniq compare all_tags in
  check_bool "bucketized shares tags" true (List.length distinct < List.length all_tags);
  let pois =
    Wre.Column_enc.create ~master ~column:"c" ~kind:(Wre.Scheme.Poisson 10.0) ~dist:small_dist ()
  in
  let ptags =
    List.concat_map (fun m -> Wre.Column_enc.search_tags pois m)
      (Array.to_list (Dist.Empirical.support small_dist))
  in
  check_int "poisson tags disjoint" (List.length ptags) (List.length (List.sort_uniq compare ptags))

let test_column_enc_poisson_tag_frequencies_smooth () =
  (* Encrypt a skewed column under Poisson and verify no tag is much
     more frequent than ~1/lambda — the frequency-smoothing claim. *)
  let g = Stdx.Prng.create 6L in
  let lambda = 300.0 in
  let enc =
    Wre.Column_enc.create ~master ~column:"c" ~kind:(Wre.Scheme.Poisson lambda) ~dist:small_dist ()
  in
  let n = 30000 in
  let counts = Hashtbl.create 512 in
  for _ = 1 to n do
    let m = Dist.Empirical.sampler small_dist g in
    let tag, _ = Wre.Column_enc.encrypt enc g m in
    Hashtbl.replace counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  let max_freq = float_of_int max_count /. float_of_int n in
  (* Exponential tail: P(slot > 6/lambda) = e^-6 ~ 0.0025 per slot. *)
  check_bool "no tag dominates" true (max_freq < 8.0 /. lambda)

(* ---------------- Dist_est ---------------- *)

let test_dist_est () =
  let schema =
    Sqldb.Schema.create
      [
        { name = "id"; ty = TInt; nullable = false };
        { name = "name"; ty = TText; nullable = false };
      ]
  in
  let rows =
    List.init 10 (fun i ->
        [| Sqldb.Value.Int (Int64.of_int i); Sqldb.Value.Text (if i < 7 then "a" else "b") |])
  in
  let dist_of = Wre.Dist_est.of_rows ~schema ~columns:[ "name" ] (List.to_seq rows) in
  let d = dist_of "name" in
  check_float "a" 0.7 (Dist.Empirical.prob d "a");
  check_int "counts preserved" 7 (Dist.Empirical.count d "a");
  let raised = try ignore (dist_of "id"); false with Invalid_argument _ -> true in
  check_bool "unprofiled column rejected" true raised

(* ---------------- Encrypted DB integration ---------------- *)

let edb_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "note"; ty = TText; nullable = true };
      { name = "amount"; ty = TInt; nullable = false };
    ]

let edb_rows =
  let g = Stdx.Prng.create 7L in
  List.init 800 (fun i ->
      let name = Dist.Empirical.sampler small_dist g in
      [|
        Sqldb.Value.Int (Int64.of_int i);
        Sqldb.Value.Text name;
        (if i mod 7 = 0 then Sqldb.Value.Null else Sqldb.Value.Text "n");
        Sqldb.Value.Int (Int64.of_int (i * 3));
      |])

let make_edb kind =
  let db = Sqldb.Database.create () in
  let dist_of = Wre.Dist_est.of_rows ~schema:edb_schema ~columns:[ "name" ] (List.to_seq edb_rows) in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"t" ~plain_schema:edb_schema ~key_column:"id"
      ~encrypted_columns:[ "name" ] ~kind ~master ~dist_of ~seed:13L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) edb_rows;
  (db, edb)

let truth name =
  List.length (List.filter (fun r -> r.(1) = Sqldb.Value.Text name) edb_rows)

(* The plaintext SQL of a search for [name = m]: what the proxy
   answers, decrypting and dropping bucketized false positives. *)
let select_name m = Printf.sprintf "SELECT * FROM t WHERE name = '%s'" m

let test_edb_search_exact_all_kinds () =
  List.iter
    (fun kind ->
      let _db, edb = make_edb kind in
      let proxy = Wre.Proxy.create edb in
      Array.iter
        (fun m ->
          let r = Result.get_ok (Wre.Proxy.execute proxy (select_name m)) in
          check_int
            (Printf.sprintf "%s search %s" (Wre.Scheme.to_string kind) m)
            (truth m) (List.length r.rows);
          List.iter (fun row -> check_bool "right value" true (row.(1) = Sqldb.Value.Text m)) r.rows)
        (Dist.Empirical.support small_dist))
    all_kinds

let test_edb_bucketized_superset () =
  let _db, edb = make_edb (Wre.Scheme.Bucketized 50.0) in
  let proxy = Wre.Proxy.create edb in
  let total_fp = ref 0 in
  Array.iter
    (fun m ->
      let r = Result.get_ok (Wre.Proxy.execute proxy (select_name m)) in
      check_bool "server >= client" true (r.server_rows >= List.length r.rows);
      total_fp := !total_fp + r.server_rows - List.length r.rows)
    (Dist.Empirical.support small_dist);
  check_bool "false positives exist at low lambda" true (!total_fp > 0)

let test_edb_non_bucketized_no_fp () =
  List.iter
    (fun kind ->
      let _db, edb = make_edb kind in
      let proxy = Wre.Proxy.create edb in
      Array.iter
        (fun m ->
          let r = Result.get_ok (Wre.Proxy.execute proxy (select_name m)) in
          check_int (Wre.Scheme.to_string kind ^ " exact server count") (List.length r.rows)
            r.server_rows)
        (Dist.Empirical.support small_dist))
    [ Wre.Scheme.Det; Wre.Scheme.Fixed 8; Wre.Scheme.Poisson 200.0 ]

let test_edb_decrypt_row_roundtrip () =
  let _db, edb = make_edb (Wre.Scheme.Poisson 100.0) in
  let table = Wre.Encrypted_db.table edb in
  List.iteri
    (fun i plain ->
      if i < 20 then begin
        let dec = Wre.Encrypted_db.decrypt_row edb (Sqldb.Table.peek_row table i) in
        check_bool (Printf.sprintf "row %d roundtrips" i) true (dec = plain)
      end)
    edb_rows

let test_edb_schema_shape () =
  let _db, edb = make_edb Wre.Scheme.Det in
  let schema = Sqldb.Table.schema (Wre.Encrypted_db.table edb) in
  (* id + name_tag + name_data + note_data + amount_data = 5 *)
  check_int "arity" 5 (Sqldb.Schema.arity schema);
  check_bool "tag column" true (Sqldb.Schema.column_index_opt schema "name_tag" <> None);
  check_bool "data column" true (Sqldb.Schema.column_index_opt schema "name_data" <> None);
  check_bool "plain name gone" true (Sqldb.Schema.column_index_opt schema "name" = None);
  check_bool "key survives" true (Sqldb.Schema.column_index_opt schema "id" <> None)

let test_edb_search_uses_index () =
  let _db, edb = make_edb (Wre.Scheme.Poisson 100.0) in
  let r =
    Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Sqldb.Executor.Row_ids
      (Wre.Encrypted_db.search_predicate edb ~column:"name" "alpha")
  in
  check_bool "index scan" true (r.plan = Sqldb.Executor.Index_scan "name_tag")

let test_edb_rejects_bad_config () =
  let db = Sqldb.Database.create () in
  let dist_of _ = small_dist in
  let raised =
    try
      ignore
        (Wre.Encrypted_db.create ~db ~name:"t" ~plain_schema:edb_schema ~key_column:"amount"
           ~encrypted_columns:[ "amount" ] ~kind:Wre.Scheme.Det ~master ~dist_of ~seed:1L ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-text searchable rejected" true raised

let test_edb_unknown_search_empty () =
  let _db, edb = make_edb (Wre.Scheme.Poisson 100.0) in
  let r = Result.get_ok (Wre.Proxy.execute (Wre.Proxy.create edb) (select_name "absent-value")) in
  check_int "no rows" 0 (List.length r.rows);
  check_int "no server rows" 0 r.server_rows

(* ---------------- Range index (extension) ---------------- *)

let range_master = Crypto.Keys.of_raw ~k0:(String.make 16 'r') ~k1:(String.make 32 'R')

let test_range_index_buckets () =
  let training = Array.init 1000 (fun i -> Int64.of_int i) in
  let ri = Wre.Range_index.create ~master:range_master ~column:"v" ~buckets:10 ~training in
  check_int "ten buckets" 10 (Wre.Range_index.bucket_count ri);
  (* Equi-depth on uniform data: boundaries near the deciles. *)
  let b = Wre.Range_index.boundaries ri in
  check_bool "first boundary near 100" true (Int64.to_int b.(0) >= 80 && Int64.to_int b.(0) <= 120);
  (* Buckets are monotone in the value. *)
  let prev = ref (-1) in
  for v = 0 to 999 do
    let bk = Wre.Range_index.bucket_of ri (Int64.of_int v) in
    check_bool "monotone" true (bk >= !prev);
    prev := bk
  done

let test_range_index_skewed_dedup () =
  (* A constant column collapses to a single bucket rather than empty
     buckets. *)
  let training = Array.make 500 42L in
  let ri = Wre.Range_index.create ~master:range_master ~column:"v" ~buckets:8 ~training in
  check_int "one boundary value" 2 (Wre.Range_index.bucket_count ri);
  check_bool "same tag for the constant" true
    (Wre.Range_index.tag_of_value ri 42L = Wre.Range_index.tag_of_value ri 42L)

let test_range_index_tags_cover_range () =
  let training = Array.init 1000 (fun i -> Int64.of_int i) in
  let ri = Wre.Range_index.create ~master:range_master ~column:"v" ~buckets:10 ~training in
  (* Every value inside the range must have its tag in the expansion. *)
  let tags = Wre.Range_index.tags_for_range ri ~lo:(Some 250L) ~hi:(Some 420L) in
  for v = 250 to 420 do
    check_bool (Printf.sprintf "tag of %d covered" v) true
      (List.mem (Wre.Range_index.tag_of_value ri (Int64.of_int v)) tags)
  done;
  check_bool "few buckets expanded" true (List.length tags <= 4);
  check_bool "unbounded covers all" true
    (List.length (Wre.Range_index.tags_for_range ri ~lo:None ~hi:None)
    = Wre.Range_index.bucket_count ri);
  check_bool "empty range" true
    (Wre.Range_index.tags_for_range ri ~lo:(Some 900L) ~hi:(Some 100L) = [])

let range_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "income"; ty = TInt; nullable = false };
    ]

let range_rows =
  List.init 500 (fun i ->
      [|
        Sqldb.Value.Int (Int64.of_int i);
        Sqldb.Value.Text (if i mod 2 = 0 then "even" else "odd");
        Sqldb.Value.Int (Int64.of_int (1000 + (i * 37 mod 9000)));
      |])

let make_range_edb () =
  let db = Sqldb.Database.create () in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:range_schema ~columns:[ "name" ] (List.to_seq range_rows)
  in
  let training _col =
    Array.of_list
      (List.map (fun r -> match r.(2) with Sqldb.Value.Int x -> x | _ -> 0L) range_rows)
  in
  let edb =
    Wre.Encrypted_db.create ~range_columns:[ ("income", 16) ] ~range_training:training ~db
      ~name:"t" ~plain_schema:range_schema ~key_column:"id" ~encrypted_columns:[ "name" ]
      ~kind:(Wre.Scheme.Poisson 100.0) ~master:range_master ~dist_of ~seed:21L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) range_rows;
  edb

let test_range_search_exact () =
  let proxy = Wre.Proxy.create (make_range_edb ()) in
  List.iter
    (fun (lo, hi) ->
      let where =
        match (lo, hi) with
        | Some l, Some h -> Printf.sprintf "income BETWEEN %Ld AND %Ld" l h
        | None, Some h -> Printf.sprintf "income <= %Ld" h
        | Some l, None -> Printf.sprintf "income >= %Ld" l
        | None, None -> Printf.sprintf "income <= %Ld" Int64.max_int
      in
      let r =
        match Wre.Proxy.execute proxy ("SELECT * FROM t WHERE " ^ where) with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let rows = r.Wre.Proxy.rows in
      let expected =
        List.length
          (List.filter
             (fun r ->
               match r.(2) with
               | Sqldb.Value.Int x ->
                   (match lo with None -> true | Some l -> x >= l)
                   && (match hi with None -> true | Some h -> x <= h)
               | _ -> false)
             range_rows)
      in
      check_int
        (Printf.sprintf "range [%s,%s]"
           (match lo with None -> "-inf" | Some v -> Int64.to_string v)
           (match hi with None -> "+inf" | Some v -> Int64.to_string v))
        expected (List.length rows);
      check_bool "server superset" true (r.Wre.Proxy.server_rows >= List.length rows))
    [ (Some 2000L, Some 5000L); (None, Some 3000L); (Some 8000L, None); (None, None) ]

let test_range_through_proxy () =
  let edb = make_range_edb () in
  let proxy = Wre.Proxy.create edb in
  match Wre.Proxy.execute proxy "SELECT id FROM t WHERE income BETWEEN 2000 AND 5000 AND name = 'even'" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let expected =
        List.length
          (List.filter
             (fun row ->
               row.(1) = Sqldb.Value.Text "even"
               && match row.(2) with Sqldb.Value.Int x -> x >= 2000L && x <= 5000L | _ -> false)
             range_rows)
      in
      check_int "proxy range+eq conjunction" expected (List.length r.rows);
      (* And the conjunctive range leg took the ESEDS traversal plan
         probing the rtag index, not a full scan (DESIGN.md §5k). *)
      check_bool "server walked the range tree" true
        ((Option.get r.exec).plan = Sqldb.Executor.Range_traverse "income_rtag")

let test_range_tag_frequencies_flat () =
  (* Equi-depth buckets: tag counts in the encrypted table are roughly
     equal, so the rtag column leaks only the partition. *)
  let edb = make_range_edb () in
  let table = Wre.Encrypted_db.table edb in
  let schema = Sqldb.Table.schema table in
  let pos = Sqldb.Schema.column_index schema "income_rtag" in
  let counts = Hashtbl.create 32 in
  for id = 0 to Sqldb.Table.row_count table - 1 do
    let tag = (Sqldb.Table.peek_row table id).(pos) in
    Hashtbl.replace counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag))
  done;
  let values = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let max_c = List.fold_left max 0 values and min_c = List.fold_left min max_int values in
  check_bool "roughly equi-depth" true (max_c < 3 * min_c)

let test_range_index_boundary_values () =
  (* Values exactly on a bucket boundary belong to the lower bucket
     (boundaries are inclusive upper bounds); one past it moves up. *)
  let training = Array.init 100 (fun i -> Int64.of_int i) in
  let ri = Wre.Range_index.create ~master:range_master ~column:"v" ~buckets:4 ~training in
  let b = Wre.Range_index.boundaries ri in
  Array.iter
    (fun bound ->
      let at = Wre.Range_index.bucket_of ri bound in
      let above = Wre.Range_index.bucket_of ri (Int64.add bound 1L) in
      check_bool "boundary inclusive below" true (above = at + 1))
    b;
  (* Out-of-domain values still map somewhere stable. *)
  check_int "below domain -> first bucket" 0 (Wre.Range_index.bucket_of ri (-50L));
  check_int "above domain -> last bucket"
    (Wre.Range_index.bucket_count ri - 1)
    (Wre.Range_index.bucket_of ri 10_000L)

let test_edb_not_searchable_raises () =
  let _db, edb = make_edb Wre.Scheme.Det in
  let raised =
    try
      ignore (Wre.Encrypted_db.tags_for edb ~column:"note" "x");
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-searchable column rejected" true raised;
  let raised2 =
    try
      ignore (Wre.Encrypted_db.range_index edb "amount");
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-range column rejected" true raised2

(* ---------------- QCheck properties ---------------- *)

let qcheck_codec_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          return Sqldb.Value.Null;
          map (fun i -> Sqldb.Value.Int (Int64.of_int i)) int;
          map (fun f -> Sqldb.Value.Real f) float;
          map (fun s -> Sqldb.Value.Text s) string;
          map (fun s -> Sqldb.Value.Blob s) string;
        ])
  in
  QCheck.Test.make ~name:"value codec roundtrip" ~count:300 (QCheck.make value_gen) (fun v ->
      match Wre.Value_codec.decode (Wre.Value_codec.encode v) with
      | Ok v' -> Sqldb.Value.equal v v' || (v = Sqldb.Value.Real nan && v' = Sqldb.Value.Real nan)
      | Error _ -> false)

let qcheck_poisson_salts_valid =
  QCheck.Test.make ~name:"poisson salt sets always valid" ~count:100
    QCheck.(pair (float_range 1.0 2000.0) (float_range 0.0001 1.0))
    (fun (lambda, prob) ->
      let s = Wre.Salts.poisson ~seed:"q" ~lambda ~prob in
      Wre.Salts.validate s = Ok ())

let qcheck_layout_valid =
  QCheck.Test.make ~name:"bucket layouts always valid" ~count:30
    QCheck.(pair (float_range 5.0 500.0) (list_of_size Gen.(2 -- 20) (int_range 1 100)))
    (fun (lambda, counts) ->
      let dist =
        Dist.Empirical.of_counts (List.mapi (fun i c -> (Printf.sprintf "v%d" i, c)) counts)
      in
      let l =
        Wre.Bucket_layout.create ~seed:"q" ~shuffle_key:"k" ~column:"c" ~dist ~lambda
      in
      Wre.Bucket_layout.validate l = Ok ()
      && Array.for_all
           (fun m -> Wre.Bucket_layout.salts_for l m <> None)
           (Dist.Empirical.support dist))

let qcheck_search_finds_encrypted =
  QCheck.Test.make ~name:"search tags always include the encryption tag" ~count:50
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl [ "alpha"; "beta"; "gamma"; "delta" ])
           (oneofl
              [
                Wre.Scheme.Det;
                Wre.Scheme.Fixed 5;
                Wre.Scheme.Proportional 50;
                Wre.Scheme.Poisson 80.0;
                Wre.Scheme.Bucketized 80.0;
              ])))
    (fun (m, kind) ->
      let g = Stdx.Prng.create 3L in
      let enc = Wre.Column_enc.create ~master ~column:"qc" ~kind ~dist:small_dist () in
      let tag, _ = Wre.Column_enc.encrypt enc g m in
      List.mem tag (Wre.Column_enc.search_tags enc m))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "wre"
    [
      ( "scheme",
        [
          Alcotest.test_case "string roundtrip" `Quick test_scheme_string_roundtrip;
          Alcotest.test_case "expected tags" `Quick test_scheme_expected_tags;
        ] );
      ( "salts",
        [
          Alcotest.test_case "det" `Quick test_salts_det;
          Alcotest.test_case "fixed" `Quick test_salts_fixed;
          Alcotest.test_case "proportional" `Quick test_salts_proportional;
          Alcotest.test_case "proportional aliasing" `Quick test_salts_proportional_aliasing;
          Alcotest.test_case "poisson deterministic" `Quick test_salts_poisson_deterministic;
          Alcotest.test_case "poisson count" `Quick test_salts_poisson_count_scales_with_lambda;
          Alcotest.test_case "first interarrival exponential" `Quick
            test_salts_poisson_first_interarrival_exponential;
          Alcotest.test_case "validate" `Quick test_salts_validate_catches_errors;
        ] );
      ( "bucket_layout",
        [
          Alcotest.test_case "widths sum" `Quick test_layout_widths_sum_to_one;
          Alcotest.test_case "covers support" `Quick test_layout_covers_support;
          Alcotest.test_case "deterministic" `Quick test_layout_deterministic;
          Alcotest.test_case "salt count ~ p" `Quick test_layout_salt_count_tracks_probability;
          Alcotest.test_case "shared buckets" `Quick test_layout_shared_buckets_exist;
          Alcotest.test_case "returned mass bounds" `Quick test_layout_returned_mass_bounds;
          Alcotest.test_case "fp shrinks with lambda" `Quick test_layout_fp_mass_shrinks_with_lambda;
          Alcotest.test_case "data-independent widths" `Quick
            test_layout_tag_frequencies_data_independent;
        ] );
      ( "value_codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "malformed" `Quick test_codec_rejects_malformed;
        ] );
      ( "column_enc",
        [
          Alcotest.test_case "roundtrip all kinds" `Quick test_column_enc_roundtrip_all_kinds;
          Alcotest.test_case "randomized ciphertexts" `Quick test_column_enc_randomized_ciphertexts;
          Alcotest.test_case "det single tag" `Quick test_column_enc_det_single_tag;
          Alcotest.test_case "unknown plaintext" `Quick test_column_enc_unknown_plaintext;
          Alcotest.test_case "column isolation" `Quick test_column_enc_column_isolation;
          Alcotest.test_case "fallback min-frequency" `Quick test_column_enc_fallback_min_frequency;
          Alcotest.test_case "fallback poisson count" `Quick
            test_column_enc_fallback_poisson_salt_count;
          Alcotest.test_case "fallback bucketized bucket" `Quick
            test_column_enc_fallback_bucketized_existing_bucket;
          Alcotest.test_case "bucketized layout" `Quick test_column_enc_bucketized_layout_exposed;
          Alcotest.test_case "bucketized shared tags" `Quick test_column_enc_bucketized_shared_tags;
          Alcotest.test_case "poisson smoothing" `Quick test_column_enc_poisson_tag_frequencies_smooth;
        ] );
      ("dist_est", [ Alcotest.test_case "of_rows" `Quick test_dist_est ]);
      ( "encrypted_db",
        [
          Alcotest.test_case "search exact all kinds" `Quick test_edb_search_exact_all_kinds;
          Alcotest.test_case "bucketized superset" `Quick test_edb_bucketized_superset;
          Alcotest.test_case "no fp for per-message schemes" `Quick test_edb_non_bucketized_no_fp;
          Alcotest.test_case "decrypt_row roundtrip" `Quick test_edb_decrypt_row_roundtrip;
          Alcotest.test_case "schema shape" `Quick test_edb_schema_shape;
          Alcotest.test_case "uses index" `Quick test_edb_search_uses_index;
          Alcotest.test_case "rejects bad config" `Quick test_edb_rejects_bad_config;
          Alcotest.test_case "unknown search empty" `Quick test_edb_unknown_search_empty;
          Alcotest.test_case "not searchable raises" `Quick test_edb_not_searchable_raises;
        ] );
      ( "range_index",
        [
          Alcotest.test_case "buckets" `Quick test_range_index_buckets;
          Alcotest.test_case "skewed dedup" `Quick test_range_index_skewed_dedup;
          Alcotest.test_case "tags cover range" `Quick test_range_index_tags_cover_range;
          Alcotest.test_case "search exact" `Quick test_range_search_exact;
          Alcotest.test_case "through proxy" `Quick test_range_through_proxy;
          Alcotest.test_case "flat tag frequencies" `Quick test_range_tag_frequencies_flat;
          Alcotest.test_case "boundary values" `Quick test_range_index_boundary_values;
        ] );
      ( "properties",
        q
          [
            qcheck_codec_roundtrip;
            qcheck_poisson_salts_valid;
            qcheck_layout_valid;
            qcheck_search_finds_encrypted;
          ] );
    ]
