(* Fixture tests for the wre-lint analyzer: every rule R1–R6 must fire
   on a seeded violation and stay silent on compliant code, in and out
   of its path scope. Fixtures are inline sources parsed through the
   same compiler-libs front end the driver uses. *)

let all = Lint.Rule.all

let diags_of ?(path = "lib/crypto/fixture.ml") ?(rules = all) src =
  match Lint.Engine.lint_source ~rules ~path src with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "fixture did not parse: %s" e

let rules_fired ?path ?rules src =
  List.sort_uniq compare
    (List.map (fun d -> Lint.Rule.to_string d.Lint.Diagnostic.rule) (diags_of ?path ?rules src))

let check_fires ?path ?rules rule src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires" rule)
    true
    (List.mem rule (rules_fired ?path ?rules src))

let check_silent ?path ?rules src =
  Alcotest.(check (list string)) "no findings" [] (rules_fired ?path ?rules src)

(* ---------------- R1: secret hygiene ---------------- *)

let r1_printf () = check_fires "R1" {| let leak ~key = Printf.printf "key=%s" key |}
let r1_format () = check_fires "R1" {| let leak mac_key = Format.eprintf "%s" mac_key |}
let r1_hex () = check_fires "R1" {| let leak ~key = Stdx.Bytes_util.to_hex key |}

let r1_exception_payload () =
  check_fires "R1" {| let f ~key = failwith ("bad " ^ key) |};
  check_fires "R1" {| let f ~key = raise (Failure key) |}

let r1_typed_binding () =
  (* Name is innocuous; the Keys.master annotation marks it secret. *)
  check_fires "R1" {| let m : Keys.master = gen () let _ = print_string m |}

let r1_silent_on_derived () =
  (* The secret flows into the PRF, not the printer: the printed value
     is a non-secret application result. *)
  check_silent {| let show ~key msg = print_string (tag_of (prf ~key msg)) |};
  check_silent {| let show x = Printf.printf "%d" x |}

let r1_out_of_scope () =
  check_silent ~path:"bench/exp_fixture.ml" {| let leak ~key = Printf.printf "%s" key |}

(* ---------------- R2: constant-time discipline ---------------- *)

let r2_poly_eq () = check_fires "R2" {| let check tag other = tag = other |}
let r2_string_equal () = check_fires "R2" {| let check ~mac x = String.equal mac x |}
let r2_compare () = check_fires "R2" {| let check ~data_key x = compare data_key x = 0 |}

let r2_core_scope () =
  check_fires "R2" ~path:"lib/core/fixture.ml" {| let hit row_tag t = row_tag = t |}

let r2_silent_ct_equal () =
  check_silent {| let check tag other = Stdx.Bytes_util.ct_equal tag other |}

let r2_silent_non_sensitive () =
  check_silent {| let f n = n = 3 |};
  (* Same comparison outside lib/crypto + lib/core: not R2's business. *)
  check_silent ~path:"lib/sqldb/fixture.ml" {| let check tag other = tag = other |}

(* ---------------- R3: determinism ---------------- *)

let r3_random () =
  check_fires "R3" ~path:"bench/exp_fixture.ml" {| let x = Random.int 10 |};
  check_fires "R3" ~path:"lib/dist/fixture.ml" {| let () = Random.self_init () |}

let r3_wall_clock () =
  check_fires "R3" ~path:"bench/exp_fixture.ml" {| let t = Unix.gettimeofday () |};
  check_fires "R3" ~path:"examples/fixture.ml" {| let t = Sys.time () |}

let r3_exempt_modules () =
  check_silent ~path:"lib/stdx/prng.ml" {| let reseed () = Random.self_init () |};
  check_silent ~path:"lib/stdx/clock.ml" {| let now () = Unix.gettimeofday () |}

let r3_silent_prng () =
  check_silent ~path:"bench/exp_fixture.ml" {| let x g = Stdx.Prng.int g 10 |}

(* ---------------- R4: interface coverage ---------------- *)

let with_temp_tree f =
  let root = Filename.temp_file "wre_lint" "" in
  Sys.remove root;
  Sys.mkdir root 0o700;
  Sys.mkdir (Filename.concat root "lib") 0o700;
  let dir = Filename.concat (Filename.concat root "lib") "m" in
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm root)
    (fun () -> f root dir)

let write_file path contents = Out_channel.with_open_text path (fun oc -> output_string oc contents)

let r4_missing_mli () =
  with_temp_tree (fun root dir ->
      write_file (Filename.concat dir "orphan.ml") "let x = 1\n";
      let r = Lint.Project.lint_paths ~rules:all [ root ] in
      Alcotest.(check (list string)) "no errors" [] r.errors;
      Alcotest.(check bool) "R4 fires" true
        (List.exists (fun d -> Lint.Rule.equal d.Lint.Diagnostic.rule Lint.Rule.R4) r.diagnostics))

let r4_with_mli () =
  with_temp_tree (fun root dir ->
      write_file (Filename.concat dir "covered.ml") "let x = 1\n";
      write_file (Filename.concat dir "covered.mli") "val x : int\n";
      let r = Lint.Project.lint_paths ~rules:all [ root ] in
      Alcotest.(check (list string)) "no errors" [] r.errors;
      Alcotest.(check int) "silent" 0 (List.length r.diagnostics))

(* ---------------- R5: partial escapes ---------------- *)

let r5_obj_magic () = check_fires "R5" ~path:"lib/sqldb/fixture.ml" {| let f x = Obj.magic x |}

let r5_assert_false () =
  check_fires "R5" ~path:"lib/sqldb/fixture.ml" {| let f () = assert false |}

let r5_catch_all () =
  check_fires "R5" ~path:"lib/sqldb/fixture.ml" {| let f g = try g () with _ -> 0 |}

let r5_silent_compliant () =
  check_silent ~path:"lib/sqldb/fixture.ml"
    {| let f g x = assert (x > 0); (try g () with Not_found -> 0) |}

let r5_out_of_scope () =
  (* bench/ and examples/ may prototype loosely; R5 guards lib/ only. *)
  check_silent ~path:"bench/fixture.ml" {| let f () = assert false |}

(* ---------------- R6: file-I/O discipline ---------------- *)

let r6_open_out () =
  check_fires "R6" ~path:"lib/sqldb/fixture.ml" {| let f path = open_out path |};
  check_fires "R6" ~path:"bench/exp_fixture.ml" {| let f path = open_out_bin path |}

let r6_out_channel () =
  check_fires "R6" ~path:"bin/fixture.ml"
    {| let f path s = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s) |}

let r6_unix_write () =
  check_fires "R6" ~path:"lib/core/fixture.ml" {| let f fd s = Unix.write_substring fd s 0 1 |};
  check_fires "R6" ~path:"bench/exp_fixture.ml" {| let f a b = Unix.rename a b |}

let r6_store_exempt () =
  (* lib/store is the one place raw writes are legal: everything else
     must route through Store.Io so failpoints can reach it. *)
  check_silent ~path:"lib/store/io.ml" {| let f path = open_out path |};
  check_silent ~path:"lib/store/wal.ml" {| let f fd s = Unix.write_substring fd s 0 1 |}

let r6_reads_ok () =
  check_silent ~path:"lib/sqldb/fixture.ml"
    {| let f path = In_channel.with_open_text path In_channel.input_all |};
  check_silent ~path:"bin/fixture.ml" {| let f path s = Store.Io.atomic_write_text ~path s |}

(* ---------------- rule toggling ---------------- *)

let rules_toggle () =
  let src = {| let check tag other = tag = other
               let f () = assert false |} in
  Alcotest.(check (list string)) "both fire" [ "R2"; "R5" ] (rules_fired src);
  Alcotest.(check (list string)) "only R5" [ "R5" ] (rules_fired ~rules:[ Lint.Rule.R5 ] src)

(* ---------------- allowlist ---------------- *)

let allow_parse () =
  match Lint.Allowlist.of_string "# comment\nR5 lib/sqldb/pager.ml:42\nR3 bench/exp.ml\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok entries -> Alcotest.(check int) "two entries" 2 (List.length entries)

let allow_rejects_garbage () =
  (match Lint.Allowlist.of_string "R42 somewhere.ml" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule accepted");
  match Lint.Allowlist.of_string "justonetoken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted"

let allow_suppresses () =
  let d = List.hd (diags_of {| let f () = assert false |} ~path:"lib/x/f.ml" ~rules:all) in
  let ok s = match Lint.Allowlist.of_string s with Ok a -> a | Error e -> Alcotest.failf "%s" e in
  Alcotest.(check bool) "file-level" true (Lint.Allowlist.suppresses (ok "R5 lib/x/f.ml") d);
  Alcotest.(check bool) "line-level" true
    (Lint.Allowlist.suppresses (ok (Printf.sprintf "R5 lib/x/f.ml:%d" d.Lint.Diagnostic.line)) d);
  Alcotest.(check bool) "wrong line" false
    (Lint.Allowlist.suppresses (ok "R5 lib/x/f.ml:9999") d);
  Alcotest.(check bool) "wrong rule" false (Lint.Allowlist.suppresses (ok "R2 lib/x/f.ml") d);
  Alcotest.(check int) "unused entry reported" 1
    (List.length (Lint.Allowlist.unused (ok "R2 lib/other.ml") [ d ]))

(* ---------------- project pipeline helpers (R7–R9) ---------------- *)

let project_result ?(rules = all) units =
  Lint.Project.lint_units ~rules
    (List.map (fun (p, s) -> { Lint.Project.u_path = p; u_source = s }) units)

let project_diags ?rules units =
  let result = project_result ?rules units in
  Alcotest.(check (list string)) "no parse errors" [] result.Lint.Project.errors;
  result.Lint.Project.diagnostics

let project_rules ?rules units =
  List.sort_uniq compare
    (List.map (fun d -> Lint.Rule.to_string d.Lint.Diagnostic.rule) (project_diags ?rules units))

let check_project_fires ?rules rule units =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires" rule)
    true
    (List.mem rule (project_rules ?rules units))

let check_project_silent ?rules units =
  Alcotest.(check (list string)) "no findings" [] (project_rules ?rules units)

let r7 = [ Lint.Rule.R7 ]
let r8 = [ Lint.Rule.R8 ]
let r9 = [ Lint.Rule.R9 ]

(* ---------------- R7: secret-taint flow ---------------- *)

let r7_print_sink () =
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/fixture.ml", {| let leak ~key = Printf.printf "k=%s" key |}) ]

let r7_let_binding_flow () =
  (* Taint survives the k2 rebinding: the single-name heuristic of R1
     would miss this. *)
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/fixture.ml", {| let f ~key = let k2 = key in Printf.printf "%s" k2 |}) ]

let r7_trace_label () =
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/fixture.ml",
       {| let span ~plain_row = Obs.Trace.event "enc" ~attrs:[ ("row", plain_row) ] |}) ]

let r7_serialize_outside_store () =
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/fixture.ml", {| let dump ~key path = Store.Io.atomic_write_text ~path key |}) ];
  (* The same write inside lib/store is the WAL doing its job. *)
  check_project_silent ~rules:r7
    [ ("lib/store/fixture.ml", {| let dump ~key path = Store.Io.atomic_write_text ~path key |}) ]

let r7_exn_payload_classes () =
  (* Key material in an exception payload leaks; plaintext in an
     exception payload is the client-facing error contract. *)
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/fixture.ml", {| let f ~key = failwith ("bad " ^ key) |}) ];
  check_project_silent ~rules:r7
    [ ("lib/core/fixture.ml", {| let f ~plaintext = failwith ("unknown " ^ plaintext) |}) ]

let r7_sanitizer_clean () =
  check_project_silent ~rules:r7
    [ ("lib/core/fixture.ml",
       {| let show ~key m = Printf.printf "%s" (Crypto.Hmac.mac_hex ~key m) |}) ];
  check_project_silent ~rules:r7
    [ ("lib/core/fixture.ml",
       {| let span ~plain_row = Obs.Trace.event "enc" ~attrs:[ ("row", scrub_label plain_row) ] |}) ]

let r7_application_is_public () =
  (* Arbitrary application does not propagate: the PRF result is public. *)
  check_project_silent ~rules:r7
    [ ("lib/core/fixture.ml", {| let show ~key m = Printf.printf "%s" (tag_of (prf ~key m)) |}) ]

let r7_off_is_silent () =
  check_project_silent
    ~rules:[ Lint.Rule.R1; Lint.Rule.R2; Lint.Rule.R3; Lint.Rule.R5 ]
    [ ("lib/sqldb/fixture.ml", {| let f ~key = let k2 = key in Printf.printf "%s" k2 |}) ]

let source_a =
  {| let master_of_seed () = Keys.generate (Stdx.Prng.create 1) |}

let source_b = {| let show () = Printf.printf "master=%s" (A.master_of_seed ()) |}

let r7_cross_module () =
  (* The secret is born in module A and printed in module B: invisible
     to any single-file pass, caught with the summary table. *)
  check_project_silent ~rules:r7 [ ("lib/core/b.ml", source_b) ];
  check_project_fires ~rules:r7 "R7"
    [ ("lib/core/a.ml", source_a); ("lib/core/b.ml", source_b) ];
  let d = List.hd (project_diags ~rules:r7 [ ("lib/core/a.ml", source_a); ("lib/core/b.ml", source_b) ]) in
  Alcotest.(check string) "flagged in the consumer" "lib/core/b.ml" d.Lint.Diagnostic.file

(* ---------------- R8: domain-safety ---------------- *)

let r8_mutable_field () =
  check_project_fires ~rules:r8 "R8"
    [ ("lib/sqldb/fixture.ml", {| type t = { mutable hits : int } |}) ]

let r8_toplevel_state () =
  check_project_fires ~rules:r8 "R8"
    [ ("lib/obs/fixture.ml", {| let cache = Hashtbl.create 16 |}) ];
  check_project_fires ~rules:r8 "R8"
    [ ("lib/core/fixture.ml", {| let counter = ref 0 |}) ]

let r8_atomic_clean () =
  check_project_silent ~rules:r8
    [ ("lib/sqldb/fixture.ml",
       {| type t = { hits : int Atomic.t }
          let counter = Atomic.make 0
          let local = Domain.DLS.new_key (fun () -> 0) |}) ]

let r8_guard_annotation () =
  check_project_silent ~rules:r8
    [ ("lib/sqldb/fixture.ml",
       {| (* lint: guarded-by lock *)
          type t = { mutable hits : int; lock : Mutex.t } |}) ]

let r8_out_of_scope () =
  (* lib/stdx is not on the fan-out surface. *)
  check_project_silent ~rules:r8
    [ ("lib/stdx/fixture.ml", {| type t = { mutable hits : int } |}) ]

let r8_server_in_scope () =
  (* PR 7 put the batched-admission server on the fan-out surface:
     unguarded session state in lib/server must fire like lib/sqldb. *)
  check_project_fires ~rules:r8 "R8"
    [ ("lib/server/fixture.ml", {| type t = { mutable sessions : int } |}) ];
  check_project_silent ~rules:r8
    [ ("lib/server/fixture.ml",
       {| (* lint: guarded-by lock *)
          type t = { mutable sessions : int; lock : Mutex.t } |}) ]

let r8_reachability () =
  (* With a Task_pool user in the project, only modules it (transitively)
     references are in scope. *)
  let pool_user = ("lib/core/exec.ml", {| let run () = Task_pool.map (fun () -> A.step ()) |}) in
  let reached = ("lib/sqldb/a.ml", {| type t = { mutable x : int } let step () = () |}) in
  let unreached = ("lib/sqldb/standalone.ml", {| type t = { mutable y : int } |}) in
  let diags = project_diags ~rules:r8 [ pool_user; reached; unreached ] in
  let files = List.map (fun d -> d.Lint.Diagnostic.file) diags in
  Alcotest.(check bool) "referenced module flagged" true (List.mem "lib/sqldb/a.ml" files);
  Alcotest.(check bool) "unreferenced module not flagged" false
    (List.mem "lib/sqldb/standalone.ml" files)

let r8_off_is_silent () =
  check_project_silent ~rules:[ Lint.Rule.R5 ]
    [ ("lib/sqldb/fixture.ml", {| type t = { mutable hits : int } |}) ]

(* ---------------- R9: durability discipline ---------------- *)

let r9_rename_before_sync () =
  check_project_fires ~rules:r9 "R9"
    [ ("lib/store/fixture.ml",
       {| let publish path tmp data =
            let f = open_trunc tmp in
            write f data;
            Unix.rename tmp path |}) ]

let r9_unsynced_close () =
  check_project_fires ~rules:r9 "R9"
    [ ("lib/store/fixture.ml",
       {| let save path data =
            let f = open_trunc path in
            write f data;
            Unix.close f |}) ]

let r9_clean_sequence () =
  check_project_silent ~rules:r9
    [ ("lib/store/fixture.ml",
       {| let publish path tmp data =
            let f = open_trunc tmp in
            write f data;
            fsync f;
            Unix.close f;
            Unix.rename tmp path;
            fsync_dir (Filename.dirname path) |}) ]

let r9_group_commit_ok () =
  (* A write with no following close/rename (the WAL's group-commit
     append) is legal: fsync happens on the batch boundary. *)
  check_project_silent ~rules:r9
    [ ("lib/store/fixture.ml", {| let append t payload = write t.file payload |}) ]

let r9_out_of_scope () =
  check_project_silent ~rules:r9
    [ ("lib/sqldb/fixture.ml",
       {| let publish path tmp data =
            let f = open_trunc tmp in
            write f data;
            Unix.rename tmp path |}) ]

let r9_off_is_silent () =
  check_project_silent ~rules:[ Lint.Rule.R3 ]
    [ ("lib/store/fixture.ml",
       {| let save path data =
            let f = open_trunc path in
            write f data;
            Unix.close f |}) ]

(* ---------------- allowlist vs the new rules ---------------- *)

let allow_new_rules () =
  let ok s = match Lint.Allowlist.of_string s with Ok a -> a | Error e -> Alcotest.failf "%s" e in
  let suppressed entry units rules =
    match project_diags ~rules units with
    | [] -> Alcotest.fail "expected a finding to suppress"
    | d :: _ -> Lint.Allowlist.suppresses (ok entry) d
  in
  Alcotest.(check bool) "R7 entry" true
    (suppressed "R7 lib/core/fixture.ml"
       [ ("lib/core/fixture.ml", {| let leak ~key = Printf.printf "%s" key |}) ]
       r7);
  Alcotest.(check bool) "R8 entry" true
    (suppressed "R8 lib/sqldb/fixture.ml"
       [ ("lib/sqldb/fixture.ml", {| type t = { mutable hits : int } |}) ]
       r8);
  Alcotest.(check bool) "R9 entry" true
    (suppressed "R9 lib/store/fixture.ml"
       [ ("lib/store/fixture.ml",
          {| let save p d = let f = open_trunc p in write f d; Unix.close f |}) ]
       r9)

let allow_path_suffix () =
  (* Absolute and ./-relative diagnostic paths match the same
     repo-relative entry. *)
  let ok s = match Lint.Allowlist.of_string s with Ok a -> a | Error e -> Alcotest.failf "%s" e in
  let entry = ok "R7 lib/core/fixture.ml" in
  let diag_at path =
    List.hd (project_diags ~rules:r7 [ (path, {| let leak ~key = Printf.printf "%s" key |}) ])
  in
  Alcotest.(check bool) "absolute path" true
    (Lint.Allowlist.suppresses entry (diag_at "/tmp/work/lib/core/fixture.ml"));
  Alcotest.(check bool) "./-relative path" true
    (Lint.Allowlist.suppresses entry (diag_at "./lib/core/fixture.ml"));
  Alcotest.(check bool) "different file does not match" false
    (Lint.Allowlist.suppresses entry (diag_at "/tmp/work/lib/core/other_fixture.ml"))

(* ---------------- severity + stats ---------------- *)

let severity_levels () =
  Alcotest.(check string) "R7 is an error" "error"
    Lint.Rule.(severity_string (severity R7));
  Alcotest.(check string) "R4 is a warning" "warning"
    Lint.Rule.(severity_string (severity R4))

let stats_reported () =
  let result =
    project_result ~rules:r7
      [ ("lib/core/fixture.ml", {| let leak ~key = Printf.printf "%s" key |}) ]
  in
  Alcotest.(check int) "one unit" 1 result.Lint.Project.n_units;
  match
    List.find_opt
      (fun s -> Lint.Rule.equal s.Lint.Project.sr_rule Lint.Rule.R7)
      result.Lint.Project.stats
  with
  | None -> Alcotest.fail "no R7 stat row"
  | Some s ->
      Alcotest.(check int) "R7 hit counted" 1 s.Lint.Project.hits;
      Alcotest.(check bool) "wall time measured" true (s.Lint.Project.wall_ns >= 0.0)

(* ---------------- diagnostics format ---------------- *)

let diagnostic_format () =
  let d = List.hd (diags_of {| let check tag other = tag = other |}) in
  let s = Lint.Diagnostic.to_string d in
  Alcotest.(check bool) "has file:line" true
    (String.length s > 0 && String.sub s 0 (String.length "lib/crypto/fixture.ml:")
                            = "lib/crypto/fixture.ml:");
  Alcotest.(check bool) "names the rule" true
    (List.exists (fun r -> r = "R2") (rules_fired {| let check tag other = tag = other |}))

let () =
  Alcotest.run "lint"
    [
      ( "r1_secret_hygiene",
        [
          Alcotest.test_case "printf leak" `Quick r1_printf;
          Alcotest.test_case "format leak" `Quick r1_format;
          Alcotest.test_case "hex dump" `Quick r1_hex;
          Alcotest.test_case "exception payload" `Quick r1_exception_payload;
          Alcotest.test_case "typed binding" `Quick r1_typed_binding;
          Alcotest.test_case "silent on derived" `Quick r1_silent_on_derived;
          Alcotest.test_case "out of scope" `Quick r1_out_of_scope;
        ] );
      ( "r2_constant_time",
        [
          Alcotest.test_case "polymorphic =" `Quick r2_poly_eq;
          Alcotest.test_case "String.equal" `Quick r2_string_equal;
          Alcotest.test_case "compare" `Quick r2_compare;
          Alcotest.test_case "lib/core scope" `Quick r2_core_scope;
          Alcotest.test_case "ct_equal ok" `Quick r2_silent_ct_equal;
          Alcotest.test_case "non-sensitive ok" `Quick r2_silent_non_sensitive;
        ] );
      ( "r3_determinism",
        [
          Alcotest.test_case "Random banned" `Quick r3_random;
          Alcotest.test_case "wall clock banned" `Quick r3_wall_clock;
          Alcotest.test_case "prng/clock exempt" `Quick r3_exempt_modules;
          Alcotest.test_case "Stdx.Prng ok" `Quick r3_silent_prng;
        ] );
      ( "r4_interfaces",
        [
          Alcotest.test_case "missing mli" `Quick r4_missing_mli;
          Alcotest.test_case "with mli" `Quick r4_with_mli;
        ] );
      ( "r5_partial_escapes",
        [
          Alcotest.test_case "Obj.magic" `Quick r5_obj_magic;
          Alcotest.test_case "assert false" `Quick r5_assert_false;
          Alcotest.test_case "catch-all" `Quick r5_catch_all;
          Alcotest.test_case "compliant" `Quick r5_silent_compliant;
          Alcotest.test_case "out of scope" `Quick r5_out_of_scope;
        ] );
      ( "r6_file_io",
        [
          Alcotest.test_case "open_out" `Quick r6_open_out;
          Alcotest.test_case "Out_channel" `Quick r6_out_channel;
          Alcotest.test_case "Unix write/rename" `Quick r6_unix_write;
          Alcotest.test_case "lib/store exempt" `Quick r6_store_exempt;
          Alcotest.test_case "reads + Store.Io ok" `Quick r6_reads_ok;
        ] );
      ( "r7_secret_taint",
        [
          Alcotest.test_case "print sink" `Quick r7_print_sink;
          Alcotest.test_case "let-binding flow" `Quick r7_let_binding_flow;
          Alcotest.test_case "trace label" `Quick r7_trace_label;
          Alcotest.test_case "serialize outside store" `Quick r7_serialize_outside_store;
          Alcotest.test_case "exn payload classes" `Quick r7_exn_payload_classes;
          Alcotest.test_case "sanitizers clean" `Quick r7_sanitizer_clean;
          Alcotest.test_case "application is public" `Quick r7_application_is_public;
          Alcotest.test_case "off is silent" `Quick r7_off_is_silent;
          Alcotest.test_case "cross-module flow" `Quick r7_cross_module;
        ] );
      ( "r8_domain_safety",
        [
          Alcotest.test_case "mutable field" `Quick r8_mutable_field;
          Alcotest.test_case "toplevel ref/Hashtbl" `Quick r8_toplevel_state;
          Alcotest.test_case "Atomic/DLS clean" `Quick r8_atomic_clean;
          Alcotest.test_case "guarded-by annotation" `Quick r8_guard_annotation;
          Alcotest.test_case "out of scope" `Quick r8_out_of_scope;
          Alcotest.test_case "lib/server in scope" `Quick r8_server_in_scope;
          Alcotest.test_case "fan-out reachability" `Quick r8_reachability;
          Alcotest.test_case "off is silent" `Quick r8_off_is_silent;
        ] );
      ( "r9_durability",
        [
          Alcotest.test_case "rename before sync" `Quick r9_rename_before_sync;
          Alcotest.test_case "unsynced close" `Quick r9_unsynced_close;
          Alcotest.test_case "clean sequence" `Quick r9_clean_sequence;
          Alcotest.test_case "group commit ok" `Quick r9_group_commit_ok;
          Alcotest.test_case "out of scope" `Quick r9_out_of_scope;
          Alcotest.test_case "off is silent" `Quick r9_off_is_silent;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rule toggling" `Quick rules_toggle;
          Alcotest.test_case "allowlist parse" `Quick allow_parse;
          Alcotest.test_case "allowlist rejects" `Quick allow_rejects_garbage;
          Alcotest.test_case "allowlist suppresses" `Quick allow_suppresses;
          Alcotest.test_case "allowlist new rules" `Quick allow_new_rules;
          Alcotest.test_case "allowlist path suffix" `Quick allow_path_suffix;
          Alcotest.test_case "severity levels" `Quick severity_levels;
          Alcotest.test_case "per-rule stats" `Quick stats_reported;
          Alcotest.test_case "diagnostic format" `Quick diagnostic_format;
        ] );
    ]
