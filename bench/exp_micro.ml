(* B0 — Bechamel micro-benchmarks of the primitives on the encryption
   hot path: raw AES block, CTR encryption of a typical field and
   decryption of 1 KiB, the HMAC search-tag PRF, salt-set generation,
   one full WRE Enc per scheme, and the client's decrypt of one
   encrypted SPARTA row (every column, and only what
   [SELECT id ... WHERE fname = ...] reads) — plus the read path's
   byte work: CRC-32 of 64 KiB, framing a 167-row SPARTA reply and
   checking + decoding it, and the executor's heap fetch of one ~1%
   statement's rows (all 28 cells, the [SELECT *] cells, the
   [SELECT id] cells). One Test.make per operation; OLS estimate of
   ns/run. The recorded subset goes to BENCH_micro.json as ns/op and
   ns/byte (ns/row for the fetches). *)

open Bechamel
open Toolkit

let master = Crypto.Keys.of_raw ~k0:(String.make 16 'm') ~k1:(String.make 32 'M')

let dist =
  Dist.Empirical.of_counts
    (List.init 50 (fun i -> (Printf.sprintf "value-%02d" i, 1 + ((50 - i) * 3))))

(* One encrypted SPARTA row under bucketized-1000, the scheme of the
   paper's Figs. 4-7, plus the decrypt masks of [SELECT *] (none) and
   of [SELECT id ... WHERE fname = ...]. *)
let sparta_row () =
  let rows = Bench_util.generate_rows 1000 in
  let edb, _ =
    Bench_util.build_encrypted ~kind:(Wre.Scheme.Bucketized 1000.0)
      ~dist_of:(Bench_util.dist_of_rows rows) rows
  in
  let schema = Wre.Encrypted_db.plain_schema edb in
  let id_mask =
    Array.map
      (fun (c : Sqldb.Schema.column) -> c.name = "id" || c.name = "fname")
      (Sqldb.Schema.columns schema)
  in
  (rows, edb, Sqldb.Table.peek_row (Wre.Encrypted_db.table edb) 0, id_mask)

(* The fname value whose share of the rows is nearest 1%, and the ids
   its rewritten search returns: one statement of the paper's smallest
   multi-row result class. *)
let one_percent_ids rows edb =
  let d = Bench_util.dist_of_rows rows "fname" in
  let target = Array.length rows / 100 in
  let value =
    Array.fold_left
      (fun best v ->
        let gap v = abs (Dist.Empirical.count d v - target) in
        if gap v < gap best then v else best)
      (Dist.Empirical.support d).(0) (Dist.Empirical.support d)
  in
  (Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Sqldb.Executor.Row_ids
     (Wre.Encrypted_db.search_predicate edb ~column:"fname" value))
    .row_ids

(* A [SELECT *] reply of 167 plaintext SPARTA rows, 23 columns each. *)
let sparta_reply rows =
  Server.Wire.Result
    {
      columns =
        Array.to_list
          (Array.map (fun (c : Sqldb.Schema.column) -> c.name) (Sqldb.Schema.columns Sparta.Generator.schema));
      rows = Array.to_list (Array.sub rows 0 167);
      affected = 0;
      server_rows = 167;
    }

(* Plaintext bytes one masked decrypt recovers: each decrypted blob
   less its nonce. *)
let decrypted_bytes edb enc_row mask =
  let enc_schema = Wre.Encrypted_db.encrypted_schema edb in
  let total = ref 0 in
  Array.iteri
    (fun i (c : Sqldb.Schema.column) ->
      match Sqldb.Schema.column_index_opt enc_schema (Wre.Encrypted_db.data_column c.name) with
      | Some p when mask.(i) -> (
          match enc_row.(p) with
          | Sqldb.Value.Blob ct ->
              total := !total + String.length ct - Crypto.Ctr.ciphertext_overhead
          | _ -> ())
      | Some _ | None -> ())
    (Sqldb.Schema.columns (Wre.Encrypted_db.plain_schema edb));
  !total

let field = String.make 24 'f'

let crc_input = String.init 65536 (fun i -> Char.chr (i * 131 land 0xFF))

type per = Bytes of int | Rows of int

(* The entries BENCH_micro.json records, with the bytes one operation
   processes (for a PRF tag: the length-prefixed salt and message), or
   for a fetch the rows it reads. *)
let recorded ~row_bytes ~id_bytes ~frame_bytes ~fetch_rows =
  [
    ("aes128/block", Bytes 16);
    ("ctr/decrypt-1KiB", Bytes 1024);
    ("prf/search-tag-hmac", Bytes (4 + 8 + 4 + String.length field));
    ("edb/decrypt_row-star", Bytes row_bytes);
    ("edb/decrypt_row-id", Bytes id_bytes);
    ("crc32/64KiB", Bytes (String.length crc_input));
    ("wire/send-reply", Bytes frame_bytes);
    ("wire/recv-reply", Bytes frame_bytes);
    ("executor/fetch-all", Rows fetch_rows);
    ("executor/fetch-star", Rows fetch_rows);
    ("executor/fetch-id", Rows fetch_rows);
  ]

(* The fetches of one statement's rows, as [Executor.run_view] makes
   them for [All_columns] and for the [Columns] a [SELECT *] and a
   [SELECT id ... WHERE fname = ...] decrypt from. *)
let fetch_tests ~edb ~id_mask ~ids =
  let view = Wre.Encrypted_db.freeze edb in
  let star = Wre.Encrypted_db.fetch_positions edb in
  let id = Wre.Encrypted_db.fetch_positions ~mask:id_mask edb in
  [
    Test.make ~name:"executor/fetch-all"
      (Staged.stage (fun () -> Array.map (Sqldb.Read_view.read_row view) ids));
    Test.make ~name:"executor/fetch-star"
      (Staged.stage (fun () -> Array.map (fun i -> Sqldb.Read_view.read_cols view i star) ids));
    Test.make ~name:"executor/fetch-id"
      (Staged.stage (fun () -> Array.map (fun i -> Sqldb.Read_view.read_cols view i id) ids));
  ]

(* The reply's two wire halves: encode + frame on the server, in a
   session's reused encoder, and CRC check + decode on the client (the
   frame's payload as [recv] hands it over). *)
let wire_tests reply =
  let enc = Server.Wire.encoder () in
  let framed = Server.Wire.frame (Server.Wire.encode_response reply) in
  let hdr = Server.Wire.header_bytes in
  let payload = String.sub framed hdr (String.length framed - hdr) in
  let crc =
    match Server.Wire.parse_header (String.sub framed 0 hdr) with
    | Ok (_, crc) -> crc
    | Error e -> failwith (Server.Wire.error_string e)
  in
  [
    Test.make ~name:"wire/send-reply"
      (Staged.stage (fun () -> Server.Wire.frame_response enc reply));
    Test.make ~name:"wire/recv-reply"
      (Staged.stage (fun () ->
           match Server.Wire.check_payload ~crc payload with
           | Ok () -> Server.Wire.decode_response payload
           | Error e -> Error e));
  ]

let tests ~edb ~enc_row ~id_mask =
  let g = Stdx.Prng.create 1L in
  let aes_key = Crypto.Aes128.expand (String.make 16 'a') in
  let block = Bytes.make 16 'b' in
  let ctr_key = Crypto.Ctr.of_raw (String.make 16 'c') in
  let prf_key = Crypto.Prf.of_raw (String.make 32 'p') in
  let ct_1k = Crypto.Ctr.encrypt_random ctr_key g (String.make 1024 'd') in
  let enc_of kind = Wre.Column_enc.create ~master ~column:"bench" ~kind ~dist () in
  let encs =
    List.map
      (fun kind -> (Wre.Scheme.to_string kind, enc_of kind))
      [
        Wre.Scheme.Det;
        Wre.Scheme.Fixed 100;
        Wre.Scheme.Poisson 1000.0;
        Wre.Scheme.Bucketized 1000.0;
      ]
  in
  (* Pre-warm salt caches so the benchmark measures steady-state Enc. *)
  List.iter
    (fun (_, enc) ->
      Array.iter (fun m -> ignore (Wre.Column_enc.search_tags enc m)) (Dist.Empirical.support dist))
    encs;
  [
    Test.make ~name:"sha256/1KiB" (Staged.stage (fun () -> Crypto.Sha256.digest (String.make 1024 'x')));
    Test.make ~name:"crc32/64KiB" (Staged.stage (fun () -> Store.Crc32.digest crc_input));
    Test.make ~name:"aes128/block" (Staged.stage (fun () -> Crypto.Aes128.encrypt_block aes_key block ~off:0));
    Test.make ~name:"ctr/24B-field" (Staged.stage (fun () -> Crypto.Ctr.encrypt_random ctr_key g field));
    Test.make ~name:"ctr/decrypt-1KiB" (Staged.stage (fun () -> Crypto.Ctr.decrypt ctr_key ct_1k));
    Test.make ~name:"edb/decrypt_row-star"
      (Staged.stage (fun () -> Wre.Encrypted_db.decrypt_row edb enc_row));
    Test.make ~name:"edb/decrypt_row-id"
      (Staged.stage (fun () -> Wre.Encrypted_db.decrypt_row ~mask:id_mask edb enc_row));
    Test.make ~name:"prf/search-tag-hmac"
      (Staged.stage (fun () -> Crypto.Prf.tag prf_key ~salt:3 ~message:field));
    Test.make ~name:"prf/search-tag-siphash"
      (Staged.stage
         (let sip_key = Crypto.Prf.of_raw ~algo:Crypto.Prf.Siphash24 (String.make 32 (Char.chr 112)) in
          fun () -> Crypto.Prf.tag sip_key ~salt:3 ~message:field));
    Test.make ~name:"getSalts/poisson-1000"
      (Staged.stage (fun () -> Wre.Salts.poisson ~seed:"bench" ~lambda:1000.0 ~prob:0.02));
    Test.make ~name:"hungarian/40x40"
      (Staged.stage
         (let cost = Array.init 40 (fun i -> Array.init 40 (fun j -> float_of_int ((i * j) mod 7))) in
          fun () -> Attacks.Hungarian.solve cost));
  ]
  @ List.map
      (fun (name, enc) ->
        Test.make ~name:("wre-enc/" ^ name)
          (Staged.stage (fun () -> Wre.Column_enc.encrypt enc g "value-07")))
      encs

let run () =
  Bench_util.heading "B0: Bechamel micro-benchmarks (ns per operation, OLS)";
  let plain_rows, edb, enc_row, id_mask = sparta_row () in
  let ids = one_percent_ids plain_rows edb in
  let reply = sparta_reply plain_rows in
  (* Leave the set-up's garbage out of the first samples. *)
  Gc.compact ();
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  (* No per-sample GC stabilization: a forced collection before every
     sample swamps sub-microsecond operations (r^2 near 0 for an AES
     block on a 2-vCPU VM), while without it each estimate carries its
     own amortized GC cost. *)
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ~kde:None () in
  let grouped =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s"
      (tests ~edb ~enc_row ~id_mask @ wire_tests reply @ fetch_tests ~edb ~id_mask ~ids)
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Stdx.Table_fmt.create [ "operation"; "ns/op"; "r^2" ] in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> e
          | Some (e :: _) -> e
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols_result) in
        (name, est, r2) :: acc)
      results []
  in
  List.iter
    (fun (name, est, r2) ->
      Stdx.Table_fmt.add_row t [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.3f" r2 ])
    (List.sort compare rows);
  Stdx.Table_fmt.print t;
  let row_bytes = decrypted_bytes edb enc_row (Array.make (Array.length id_mask) true) in
  let id_bytes = decrypted_bytes edb enc_row id_mask in
  let frame_bytes = String.length (Server.Wire.frame (Server.Wire.encode_response reply)) in
  let entry (op, per) =
    let ns = List.find_map (fun (n, est, _) -> if n = "micro " ^ op then Some est else None) rows in
    let ns = Option.value ~default:nan ns in
    let per_unit unit n =
      [ ("ns_per_" ^ unit, Printf.sprintf "%.3f" (ns /. float_of_int (max n 1))); (unit ^ "s", string_of_int n) ]
    in
    ( op,
      Bench_util.json_obj
        (("ns_per_op", Printf.sprintf "%.1f" ns)
        :: (match per with Bytes n -> per_unit "byte" n | Rows n -> per_unit "row" n)) )
  in
  let json =
    Bench_util.json_obj
      [
        ("name", "\"micro\"");
        ( "config",
          Bench_util.json_obj
            [
              ("cores", string_of_int (Domain.recommended_domain_count ()));
              ("edb_scheme", "\"bucketized-1000\"");
              ("edb_row", "\"one SPARTA row, 23 columns\"");
              ("edb_id_mask", "\"id, fname\"");
              ("reply", "\"167 SPARTA rows x 23 columns\"");
              ( "fetch",
                Printf.sprintf "\"one ~1%% fname statement over %d rows\"" (Array.length plain_rows) );
            ] );
        ( "metrics",
          Bench_util.json_obj
            (List.map entry (recorded ~row_bytes ~id_bytes ~frame_bytes ~fetch_rows:(Array.length ids)))
        );
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_micro.json" json;
  print_endline "wrote BENCH_micro.json"
