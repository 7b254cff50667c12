(* Durable-storage-engine tests: CRC and codec roundtrips, WAL framing
   and torn-tail handling, checkpoint/recovery equivalence for plain
   and encrypted tables, and the fault-injection matrix — crash the
   write path at byte and sync boundaries, reopen, and require exactly
   the committed prefix back, with the weak-randomness stream resumed
   so post-recovery tags are byte-identical to a process that never
   died. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- scratch directories ---------------- *)

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wre_store_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ---------------- fixtures ---------------- *)

let plain_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = Sqldb.Value.TInt; nullable = false };
      { name = "name"; ty = Sqldb.Value.TText; nullable = false };
    ]

let names = [| "alice"; "bob"; "carol"; "dave" |]

let dist = Dist.Empirical.of_counts [ ("alice", 4); ("bob", 3); ("carol", 2); ("dave", 1) ]

let op_row i =
  [| Sqldb.Value.Int (Int64.of_int i); Sqldb.Value.Text names.(i mod Array.length names) |]

let master () = Crypto.Keys.generate (Stdx.Prng.create 99L)

let kind = Wre.Scheme.Poisson 20.0

(* Fresh store directory holding one empty encrypted table "t",
   checkpointed so the WAL starts empty. Deterministic: every call
   produces byte-identical state. *)
let setup_base dir =
  let store = Store.Engine.open_dir ~dir () in
  let edb =
    Store.Engine.create_encrypted store ~name:"t" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name" ] ~kind ~master:(master ()) ~dist_of:(fun _ -> dist) ~seed:5L
      ()
  in
  ignore edb;
  Store.Engine.checkpoint store;
  Store.Engine.close store

(* The server predicate of a search for [name = 'alice']. *)
let alice edb = Wre.Encrypted_db.search_predicate edb ~column:"name" "alice"

(* In-memory replica of [setup_base]'s table. *)
let memory_edb () =
  Wre.Encrypted_db.create ~db:(Sqldb.Database.create ()) ~name:"t" ~plain_schema
    ~key_column:"id" ~encrypted_columns:[ "name" ] ~kind ~master:(master ())
    ~dist_of:(fun _ -> dist) ~seed:5L ()

(* In-memory replica of [setup_base] + all [n] workload ops: the state
   a process that never crashed would hold. *)
let reference_state n =
  let edb = memory_edb () in
  for i = 0 to n - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  ( Sqldb.Table.snapshot (Wre.Encrypted_db.table edb),
    (Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Row_ids (alice edb))
      .row_ids )

(* ---------------- crc32 ---------------- *)

(* The textbook byte-at-a-time reflected CRC-32 over boxed [int32]s,
   kept as the reference the sliced implementation must equal. *)
let reference_crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let reference_crc_update crc s =
  let c = ref (Int32.lognot crc) in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor reference_crc_table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.lognot !c

let test_crc32_vector () =
  (* The standard IEEE 802.3 check values. *)
  check_bool "check vector" true (Store.Crc32.digest "123456789" = 0xCBF43926l);
  check_bool "fox vector" true
    (Store.Crc32.digest "The quick brown fox jumps over the lazy dog" = 0x414FA339l);
  check_bool "empty" true (Store.Crc32.digest "" = 0l)

let test_crc32_incremental () =
  let whole = Store.Crc32.digest "header-payload" in
  let inc = Store.Crc32.update (Store.Crc32.digest "header-") "payload" in
  check_bool "incremental = whole" true (whole = inc)

(* Random strings of 0-300 bytes (every alignment and tail length of
   the 8-byte step), a random starting CRC, and random split points
   chaining [update] calls: always the reference's value. *)
let qcheck_crc32_matches_reference =
  let gen =
    QCheck.Gen.(
      triple (string_size (0 -- 300)) ui32 (list_size (0 -- 4) (0 -- 300)))
  in
  QCheck.Test.make ~name:"sliced crc32 = byte-at-a-time reference" ~count:500 (QCheck.make gen)
    (fun (s, crc0, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> min c n) cuts) in
      let rec chain crc pos = function
        | [] -> Store.Crc32.update crc (String.sub s pos (n - pos))
        | cut :: rest -> chain (Store.Crc32.update crc (String.sub s pos (cut - pos))) cut rest
      in
      Store.Crc32.update crc0 s = reference_crc_update crc0 s
      && chain crc0 0 cuts = reference_crc_update crc0 s
      && Store.Crc32.digest s = reference_crc_update 0l s)

(* [update_sub] over random in-range windows, chained from a random
   starting CRC across random cut points: always [update] of the
   copied substring. Out-of-range windows are refused. *)
let qcheck_crc32_update_sub =
  let gen =
    QCheck.Gen.(
      pair
        (triple (string_size (0 -- 300)) ui32 (pair (0 -- 300) (0 -- 300)))
        (list_size (0 -- 4) (0 -- 300)))
  in
  QCheck.Test.make ~name:"crc32 update_sub = update of the substring" ~count:500
    (QCheck.make gen) (fun ((s, crc0, (a, b)), cuts) ->
      let n = String.length s in
      let off = min a n in
      let len = min b (n - off) in
      let stop = off + len in
      let cuts = List.sort_uniq compare (List.map (fun c -> off + min c len) cuts) in
      let rec chain crc pos = function
        | [] -> Store.Crc32.update_sub crc s pos (stop - pos)
        | cut :: rest -> chain (Store.Crc32.update_sub crc s pos (cut - pos)) cut rest
      in
      let expected = Store.Crc32.update crc0 (String.sub s off len) in
      let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
      Store.Crc32.update_sub crc0 s off len = expected
      && chain crc0 off cuts = expected
      && refused (fun () -> Store.Crc32.update_sub crc0 s off (n - off + 1))
      && refused (fun () -> Store.Crc32.update_sub crc0 s (-1) 0))

(* ---------------- codec ---------------- *)

let apply_op ?(deleted = [||]) ?(rows = [||]) ?prng () =
  Store.Record.Apply { table = "t"; deleted; rows; prng }

let test_codec_scalars () =
  let b = Buffer.create 64 in
  Store.Codec.put_u8 b 200;
  Store.Codec.put_u32 b 0xFFFFFFFF;
  Store.Codec.put_u64 b (-1L);
  Store.Codec.put_bool b true;
  Store.Codec.put_float b 3.25;
  Store.Codec.put_str b "hé\x00llo";
  let c = Store.Codec.cursor (Buffer.contents b) in
  check_int "u8" 200 (Store.Codec.get_u8 c);
  check_int "u32" 0xFFFFFFFF (Store.Codec.get_u32 c);
  check_bool "u64" true (Store.Codec.get_u64 c = -1L);
  check_bool "bool" true (Store.Codec.get_bool c);
  check_bool "float" true (Store.Codec.get_float c = 3.25);
  Alcotest.(check string) "str" "hé\x00llo" (Store.Codec.get_str c);
  check_bool "at end" true (Store.Codec.at_end c)

(* The word-wide readers and writers at the edges of their ranges,
   with the exact little-endian bytes pinned. *)
let test_codec_integer_edges () =
  let hex_of f =
    let b = Buffer.create 8 in
    f b;
    Stdx.Bytes_util.to_hex (Buffer.contents b)
  in
  List.iter
    (fun (n, hex) ->
      let h = hex_of (fun b -> Store.Codec.put_u32 b n) in
      Alcotest.(check string) (Printf.sprintf "u32 %d bytes" n) hex h;
      check_int (Printf.sprintf "u32 %d" n) n
        (Store.Codec.get_u32 (Store.Codec.cursor (Stdx.Bytes_util.of_hex h))))
    [
      (0, "00000000");
      (0x7FFFFFFF, "ffffff7f");
      (0x80000000, "00000080");
      (0xFFFFFFFF, "ffffffff");
      (0x01020304, "04030201");
    ];
  List.iter
    (fun (v, hex) ->
      let h = hex_of (fun b -> Store.Codec.put_u64 b v) in
      Alcotest.(check string) (Printf.sprintf "u64 %Ld bytes" v) hex h;
      check_bool (Printf.sprintf "u64 %Ld" v) true
        (Store.Codec.get_u64 (Store.Codec.cursor (Stdx.Bytes_util.of_hex h)) = v))
    [
      (Int64.min_int, "0000000000000080");
      (-1L, "ffffffffffffffff");
      (Int64.max_int, "ffffffffffffff7f");
      (0x0102030405060708L, "0807060504030201");
    ];
  check_bool "negative put_u32 raises Corrupt" true
    (match Store.Codec.put_u32 (Buffer.create 4) (-1) with
    | exception Store.Codec.Corrupt _ -> true
    | () -> false);
  check_bool "short u32 raises Corrupt" true
    (match Store.Codec.get_u32 (Store.Codec.cursor "\x01\x02\x03") with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false);
  check_bool "short u64 raises Corrupt" true
    (match Store.Codec.get_u64 (Store.Codec.cursor "\x01\x02\x03\x04\x05\x06\x07") with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

let test_codec_truncation_rejected () =
  let b = Buffer.create 16 in
  Store.Codec.put_str b "hello";
  let s = Buffer.contents b in
  let torn = String.sub s 0 (String.length s - 2) in
  check_bool "torn string rejected" true
    (match Store.Codec.get_str (Store.Codec.cursor torn) with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

(* A cursor over a substring reads in place and stops at its bound:
   reading past it is [Corrupt], as reading past the end of a string
   is, and a record decoded at an offset honours its length. *)
let test_codec_bounded_cursor () =
  let b = Buffer.create 16 in
  Store.Codec.put_str b "hello";
  let body = Buffer.contents b in
  let s = "ab" ^ body ^ "tail-bytes" in
  let n = String.length body in
  let c = Store.Codec.cursor ~off:2 ~len:n s in
  check_int "remaining" n (Store.Codec.remaining c);
  Alcotest.(check string) "str in place" "hello" (Store.Codec.get_str c);
  check_bool "at end at the bound" true (Store.Codec.at_end c);
  check_int "nothing left" 0 (Store.Codec.remaining c);
  let corrupt f = match f () with exception Store.Codec.Corrupt _ -> true | _ -> false in
  check_bool "read past the bound" true (corrupt (fun () -> Store.Codec.get_u8 c));
  check_bool "string cut by the bound" true
    (corrupt (fun () -> Store.Codec.get_str (Store.Codec.cursor ~off:2 ~len:(n - 1) s)));
  check_bool "u32 cut by the bound" true
    (corrupt (fun () -> Store.Codec.get_u32 (Store.Codec.cursor ~off:2 ~len:3 s)));
  check_bool "range outside the string" true
    (match Store.Codec.cursor ~off:2 ~len:(String.length s) s with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let op = apply_op ~deleted:[| 0; 4 |] ~rows:[| op_row 0 |] () in
  let r = Store.Record.encode op in
  let framed = "xyz" ^ r ^ "\x00" in
  check_bool "record at an offset" true
    (Store.Record.decode ~off:3 ~len:(String.length r) framed = op);
  check_bool "trailing byte inside the bound" true
    (corrupt (fun () -> Store.Record.decode ~off:3 ~len:(String.length r + 1) framed));
  (* A batch count that the whole string could hold but the record
     cannot. *)
  let short = Stdx.Bytes_util.of_hex "0401000000740a000000" in
  check_bool "count bounded by the record, not the string" true
    (match Store.Record.decode ~len:(String.length short) (short ^ String.make 64 '\x00') with
    | exception Store.Codec.Corrupt m -> m = "batch size exceeds input"
    | _ -> false)

let qcheck_codec_value_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          return Sqldb.Value.Null;
          map (fun i -> Sqldb.Value.Int (Int64.of_int i)) int;
          map (fun f -> Sqldb.Value.Real f) (float_bound_inclusive 1e9);
          map (fun s -> Sqldb.Value.Text s) (string_size (0 -- 20));
          map (fun s -> Sqldb.Value.Blob s) (string_size (0 -- 20));
        ])
  in
  QCheck.Test.make ~name:"codec row roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 8) value_gen))
    (fun vs ->
      let row = Array.of_list vs in
      let b = Buffer.create 64 in
      Store.Codec.put_row b row;
      let c = Store.Codec.cursor (Buffer.contents b) in
      let back = Store.Codec.get_row c in
      back = row && Store.Codec.at_end c)

let test_codec_table_snapshot_roundtrip () =
  let t = Sqldb.Table.create ~name:"t" ~schema:plain_schema in
  for i = 0 to 9 do
    ignore (Sqldb.Table.insert t (op_row i))
  done;
  ignore (Sqldb.Table.create_index t ~column:"name");
  ignore (Sqldb.Table.delete t 3);
  Sqldb.Table.vacuum t;
  let view = Sqldb.Table.freeze t in
  let b = Buffer.create 256 in
  Store.Codec.put_table_view b view;
  let back = Store.Codec.get_table_snapshot (Store.Codec.cursor (Buffer.contents b)) in
  check_bool "snapshot roundtrip" true (back = Sqldb.Table.snapshot_of_view view)

let test_record_roundtrip () =
  let prng = String.make 32 'x' in
  let ops =
    [
      Store.Record.Create_table { name = "t"; schema = plain_schema };
      Store.Record.Create_index { table = "t"; column = "name" };
      apply_op ~rows:[| op_row 0 |] ~prng ();
      apply_op ~rows:[| op_row 1; op_row 2 |] ();
      apply_op ~deleted:[| 7 |] ();
      apply_op ~deleted:[| 0; 4 |] ~rows:[| op_row 8; op_row 9 |] ~prng ();
      apply_op ~deleted:[| 3; 5 |] ~prng ();
      apply_op ();
      Store.Record.Vacuum { table = "t" };
    ]
  in
  List.iter
    (fun op -> check_bool "op roundtrip" true (Store.Record.decode (Store.Record.encode op) = op))
    ops;
  let tag8 = Store.Record.encode (apply_op ~deleted:[| 0; 4 |] ~rows:[| op_row 0 |] ()) in
  Alcotest.(check string) "apply bytes"
    ("08010000007402000000000000000400000001000000020000000100000000000000000305000000"
    ^ "616c69636500")
    (Stdx.Bytes_util.to_hex tag8);
  check_bool "trailing bytes rejected" true
    (match Store.Record.decode (Store.Record.encode (List.hd ops) ^ "x") with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

(* The per-row records older builds wrote, as they wrote them: an
   insert of [op_row 0] with a PRNG state, a batch of [op_row 1] and
   [op_row 2] without one, and the tombstone of id 7. Each decodes as
   the one-statement apply it was. *)
let legacy_records =
  [
    ( "030100000074020000000100000000000000000305000000616c69636501200000007878787878787878"
      ^ "787878787878787878787878787878787878787878787878",
      apply_op ~rows:[| op_row 0 |] ~prng:(String.make 32 'x') () );
    ( "04010000007402000000020000000101000000000000000303000000626f6202000000010200000000"
      ^ "00000003050000006361726f6c00",
      apply_op ~rows:[| op_row 1; op_row 2 |] () );
    ("05010000007407000000", apply_op ~deleted:[| 7 |] ());
  ]

let test_legacy_records_decode () =
  List.iter
    (fun (hex, op) ->
      check_bool ("tag " ^ String.sub hex 0 2) true
        (Store.Record.decode (Stdx.Bytes_util.of_hex hex) = op))
    legacy_records;
  check_bool "batch count past the input rejected" true
    (match Store.Record.decode (Stdx.Bytes_util.of_hex "0401000000740000ffff00") with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

(* ---------------- WAL framing ---------------- *)

let wal_roundtrip_payloads dir payloads =
  let path = Filename.concat dir "wal.bin" in
  let wal = Store.Wal.create ~path ~group_commit:1 ~next_lsn:1L in
  List.iter (fun p -> ignore (Store.Wal.append wal p)) payloads;
  Store.Wal.close wal;
  path

let test_wal_roundtrip () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; ""; "gamma-delta" ] in
      let got = ref [] in
      let max_lsn, valid_len = Store.Wal.replay ~path (fun lsn p -> got := (lsn, p) :: !got) in
      check_bool "payloads back in order" true
        (List.rev !got = [ (1L, "alpha"); (2L, ""); (3L, "gamma-delta") ]);
      check_bool "max lsn" true (max_lsn = 3L);
      let stat = Unix.stat path in
      check_int "valid prefix is whole file" stat.Unix.st_size valid_len)

let test_wal_torn_tail () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; "beta"; "gamma" ] in
      (* Tear bytes off the last frame: replay must stop cleanly after
         the second record, reporting where the valid prefix ends. *)
      let full = (Unix.stat path).Unix.st_size in
      let f = Store.Io.open_append path in
      Store.Io.truncate f (full - 3);
      Store.Io.close f;
      let got = ref [] in
      let max_lsn, valid_len = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "two intact records" true (List.rev !got = [ "alpha"; "beta" ]);
      check_bool "lsn of last intact" true (max_lsn = 2L);
      check_bool "valid prefix excludes torn frame" true (valid_len < full - 3))

let test_wal_corrupt_tail () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; "beta" ] in
      (* Flip a byte inside the last frame's payload: CRC must reject
         it and treat the frame as end-of-log. *)
      let content = Option.get (Store.Io.read_file path) in
      let b = Bytes.of_string content in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
      let f = Store.Io.open_trunc path in
      Store.Io.write f (Bytes.to_string b);
      Store.Io.close f;
      let got = ref [] in
      let _, _ = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "corrupt frame dropped" true (List.rev !got = [ "alpha" ]))

(* A whole frame the decoder does not know (a record kind from a newer
   build) fails the open and leaves the log as it was; it is not a
   torn tail to trim. *)
let test_wal_unknown_record_fails_open () =
  with_temp_dir (fun dir ->
      let path =
        wal_roundtrip_payloads dir
          [
            Store.Record.encode (Store.Record.Create_table { name = "p"; schema = plain_schema });
            "\x09\x01\x00\x00\x00p";
          ]
      in
      let size = (Unix.stat path).Unix.st_size in
      check_bool "open raises Corrupt" true
        (match Store.Engine.open_dir ~dir () with
        | exception Store.Codec.Corrupt _ -> true
        | store ->
            Store.Engine.close store;
            false);
      check_int "log untouched" size (Unix.stat path).Unix.st_size)

let test_wal_group_commit_knob () =
  with_temp_dir (fun dir ->
      let fsyncs group =
        let path = Filename.concat dir (Printf.sprintf "gc%d.bin" group) in
        let wal = Store.Wal.create ~path ~group_commit:group ~next_lsn:1L in
        Store.Failpoints.arm_counting ();
        for _ = 1 to 6 do
          ignore (Store.Wal.append wal "payload")
        done;
        let n =
          Option.value ~default:0 (List.assoc_opt "wal.fsync" (Store.Failpoints.counted_events ()))
        in
        Store.Failpoints.disarm ();
        Store.Wal.close wal;
        n
      in
      check_int "group_commit=1 syncs every record" 6 (fsyncs 1);
      check_int "group_commit=3 syncs every third" 2 (fsyncs 3))

(* ---------------- plain-table persistence ---------------- *)

let test_plain_table_roundtrip () =
  with_temp_dir (fun dir ->
      let build_ops db =
        let t = Sqldb.Database.create_table db ~name:"p" ~schema:plain_schema in
        ignore (Sqldb.Table.create_index t ~column:"name");
        for i = 0 to 9 do
          ignore (Sqldb.Table.insert t (op_row i))
        done;
        ignore (Sqldb.Table.delete t 2);
        ignore (Sqldb.Table.delete t 5);
        t
      in
      let store = Store.Engine.open_dir ~dir () in
      ignore (build_ops (Store.Engine.db store));
      Store.Engine.close store;
      let replica = Sqldb.Database.create () in
      let expected = Sqldb.Table.snapshot (build_ops replica) in
      let store = Store.Engine.open_dir ~dir () in
      let r = Store.Engine.recovery store in
      check_bool "no snapshot yet" false r.Store.Engine.snapshot_loaded;
      check_int "all records replayed" 14 r.Store.Engine.replayed;
      let t = Sqldb.Database.table (Store.Engine.db store) "p" in
      check_bool "physical state identical" true (Sqldb.Table.snapshot t = expected);
      check_bool "index survives" true (Sqldb.Table.index_on t ~column:"name" <> None);
      Store.Engine.close store)

(* ---------------- encrypted persistence + tag continuity ---------------- *)

let test_encrypted_roundtrip_continues_stream () =
  with_temp_dir (fun dir ->
      let n_before = 12 and n_total = 20 in
      let ref_snap, ref_ids = reference_state n_total in
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to n_before - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.close store;
      (* Reopen and continue: rows encrypted after recovery must carry
         the same tags/ciphertexts the uncrashed reference produced,
         i.e. the PRNG stream resumed exactly. *)
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = n_before to n_total - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let t = Wre.Encrypted_db.table edb in
      check_bool "byte-identical to uncrashed reference" true
        (Sqldb.Table.snapshot t = ref_snap);
      check_bool "search agrees" true
        ((Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Row_ids (alice edb))
           .row_ids
        = ref_ids);
      Store.Engine.close store)

let test_checkpoint_replays_only_tail () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 19 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.checkpoint store;
      for i = 20 to 24 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.close store;
      let store = Store.Engine.open_dir ~dir () in
      let r = Store.Engine.recovery store in
      check_bool "snapshot loaded" true r.Store.Engine.snapshot_loaded;
      check_int "only the tail replayed" 5 r.Store.Engine.replayed;
      let t = Wre.Encrypted_db.table (Option.get (Store.Engine.encrypted store "t")) in
      check_int "all rows back" 25 (Sqldb.Table.row_count t);
      Store.Engine.close store)

(* ---------------- vacuum + checkpoint (no resurrection) ---------------- *)

let test_vacuum_checkpoint_shrinks_no_resurrection () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 29 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let t = Wre.Encrypted_db.table edb in
      for id = 0 to 19 do
        ignore (Sqldb.Table.delete t id)
      done;
      Store.Engine.checkpoint store;
      let size_before =
        String.length (Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)))
      in
      Sqldb.Table.vacuum t;
      Store.Engine.checkpoint store;
      let size_after =
        String.length (Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)))
      in
      check_bool "snapshot shrinks after vacuum" true (size_after < size_before);
      Store.Engine.close store;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      let t = Wre.Encrypted_db.table edb in
      check_int "live rows" 10 (Sqldb.Table.live_count t);
      check_int "row ids stable" 30 (Sqldb.Table.row_count t);
      for id = 0 to 19 do
        check_bool "tombstone stays dead" false (Sqldb.Table.is_live t id)
      done;
      (* No resurrection through the index either: every id a search
         returns must be a live post-vacuum row. *)
      let ids =
        (Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Row_ids (alice edb))
          .row_ids
      in
      Array.iter
        (fun id ->
          check_bool "search hits only live rows" true (id >= 20 && Sqldb.Table.is_live t id))
        ids;
      Store.Engine.close store)

(* A vacuum that has nothing to reclaim leaves no trace: no epoch, no
   WAL record, the same physical table. That holds after a vacuum and
   after a restore of a vacuumed table; a dead row that nothing has
   reclaimed yet, deleted in the session or restored from a
   checkpoint, is still reclaimed. *)
let test_vacuum_nothing_to_reclaim () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let wal_bytes () =
        String.length (Option.value ~default:"" (Store.Io.read_file (Store.Snapshot.wal_path ~dir)))
      in
      let with_table f =
        let store = Store.Engine.open_dir ~dir () in
        let edb = Option.get (Store.Engine.encrypted store "t") in
        f store edb (Wre.Encrypted_db.table edb);
        Store.Engine.close store
      in
      let quiet label t =
        let epoch = Sqldb.Read_view.epoch (Sqldb.Table.freeze t) in
        let snap = Sqldb.Table.snapshot t and wal = wal_bytes () in
        Sqldb.Table.vacuum t;
        check_int (label ^ ": no epoch") epoch (Sqldb.Read_view.epoch (Sqldb.Table.freeze t));
        check_int (label ^ ": no WAL record") wal (wal_bytes ());
        check_bool (label ^ ": same table") true (Sqldb.Table.snapshot t = snap)
      in
      let reclaims label t id =
        let wal = wal_bytes () in
        Sqldb.Table.vacuum t;
        check_bool (label ^ ": WAL record") true (wal_bytes () > wal);
        check_bool (label ^ ": row reclaimed") true (Sqldb.Table.peek_row t id = [||])
      in
      with_table (fun _ edb t ->
          for i = 0 to 9 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          quiet "nothing deleted" t;
          ignore (Sqldb.Table.delete t 3);
          reclaims "first vacuum" t 3;
          quiet "second vacuum" t;
          ignore (Sqldb.Table.delete t 5);
          reclaims "after a new delete" t 5;
          ignore (Sqldb.Table.delete t 7));
      (* Reopened from the WAL: 3 and 5 reclaimed, 7 dead. *)
      with_table (fun store _ t ->
          reclaims "replayed delete" t 7;
          quiet "replayed vacuums" t;
          ignore (Sqldb.Table.delete t 8);
          Store.Engine.checkpoint store);
      (* Restored from the checkpoint: 8 dead but not reclaimed. *)
      with_table (fun store _ t ->
          reclaims "restored delete" t 8;
          Store.Engine.checkpoint store);
      with_table (fun _ _ t -> quiet "restored vacuumed table" t))

(* ---------------- snapshot publication ---------------- *)

let test_snapshot_tmp_ignored () =
  with_temp_dir (fun dir ->
      setup_base dir;
      (* A leftover .tmp from a crashed checkpoint must not confuse
         recovery. *)
      let f = Store.Io.open_trunc (Store.Snapshot.path ~dir ^ ".tmp") in
      Store.Io.write f "garbage that is not a snapshot";
      Store.Io.close f;
      let store = Store.Engine.open_dir ~dir () in
      check_bool "published snapshot loads" true
        (Store.Engine.recovery store).Store.Engine.snapshot_loaded;
      check_bool "table present" true (Store.Engine.encrypted store "t" <> None);
      Store.Engine.close store)

let test_corrupt_snapshot_rejected () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let path = Store.Snapshot.path ~dir in
      let content = Option.get (Store.Io.read_file path) in
      let b = Bytes.of_string content in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
      let f = Store.Io.open_trunc path in
      Store.Io.write f (Bytes.to_string b);
      Store.Io.close f;
      check_bool "published-but-corrupt snapshot is a hard error" true
        (match Store.Engine.open_dir ~dir () with
        | exception Store.Snapshot.Corrupt_snapshot _ -> true
        | _ -> false))

(* A checkpoint streamed from the frozen views of two churned tables
   (one empty) decodes to those views' snapshot records and keeps its
   LSN. *)
let test_checkpoint_roundtrips_views () =
  with_temp_dir (fun dir ->
      let t1 = Sqldb.Table.create ~name:"t1" ~schema:plain_schema in
      for i = 0 to 499 do
        ignore (Sqldb.Table.insert t1 (op_row i))
      done;
      ignore (Sqldb.Table.create_index t1 ~column:"name");
      for i = 0 to 99 do
        ignore (Sqldb.Table.delete t1 (i * 3))
      done;
      Sqldb.Table.vacuum t1;
      for i = 500 to 599 do
        ignore (Sqldb.Table.insert t1 (op_row i))
      done;
      ignore (Sqldb.Table.delete t1 550);
      let t2 = Sqldb.Table.create ~name:"t2" ~schema:plain_schema in
      (* empty-table edge *)
      let views = [ Sqldb.Table.freeze t1; Sqldb.Table.freeze t2 ] in
      let last_lsn = 42L in
      Store.Snapshot.write_views ~dir ~last_lsn ~views ~wre:[];
      let loaded = Option.get (Store.Snapshot.load ~dir) in
      check_bool "decodes to the frozen state" true
        (loaded.Store.Snapshot.tables = List.map Sqldb.Table.snapshot_of_view views);
      check_bool "lsn preserved" true (loaded.Store.Snapshot.last_lsn = last_lsn))

(* ---------------- WRESNAP2 compatibility ---------------- *)

(* The checkpoint history behind the golden snapshot below: plain table
   "p" (index on name; 12 inserts, ids 3 and 7 deleted, vacuum, 4 more
   inserts, id 13 deleted) and encrypted table "t" (the fixtures' keys,
   scheme and seed; 10 inserts, ids 1 and 6 deleted, vacuum, 4 more
   inserts, id 11 deleted), then one checkpoint. *)
let build_compat_store dir =
  let store = Store.Engine.open_dir ~dir () in
  let p = Sqldb.Database.create_table (Store.Engine.db store) ~name:"p" ~schema:plain_schema in
  ignore (Sqldb.Table.create_index p ~column:"name");
  for i = 0 to 11 do
    ignore (Sqldb.Table.insert p (op_row i))
  done;
  ignore (Sqldb.Table.delete p 3);
  ignore (Sqldb.Table.delete p 7);
  Sqldb.Table.vacuum p;
  for i = 12 to 15 do
    ignore (Sqldb.Table.insert p (op_row i))
  done;
  ignore (Sqldb.Table.delete p 13);
  let edb =
    Store.Engine.create_encrypted store ~name:"t" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name" ] ~kind ~master:(master ()) ~dist_of:(fun _ -> dist) ~seed:5L
      ()
  in
  for i = 0 to 9 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  let t = Wre.Encrypted_db.table edb in
  ignore (Sqldb.Table.delete t 1);
  ignore (Sqldb.Table.delete t 6);
  Sqldb.Table.vacuum t;
  for i = 10 to 13 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  ignore (Sqldb.Table.delete t 11);
  Store.Engine.checkpoint store;
  Store.Engine.close store

(* [build_compat_store]'s snapshot.bin as the format-2 writer published
   it: the pager cost model after the LSN, three row-format counters
   per table. *)
let golden_v2_snapshot_hex =
  "575245534e4150322c000000000000000020000000000000006a08410000000000c06240000000000088b340"
  ^ "000000000000f03f020000000100000070020000000200000069640000040000006e616d6502001000000002"
  ^ "0000001000000003010000000000000000030101000000000000000301020000000000000000030104000000"
  ^ "0000000003010500000000000000030106000000000000000003010800000000000000030109000000000000"
  ^ "0003010a0000000000000003010b0000000000000003010c0000000000000003010d0000000000000003010e"
  ^ "0000000000000003010f000000000000001000000000000000010102030005060700090a0b0c0d0e0f100400"
  ^ "0000030305000000616c696365030303000000626f620303050000006361726f6c0303040000006461766510"
  ^ "00000000000000010102030001020300010203040102030477df000000001801000000000000000000000000"
  ^ "0000000000001400000014000000140000000000000014000000140000001400000000000000140000001400"
  ^ "0000140000001400000014000000140000001400000014000000180100000000000004010000000000000000"
  ^ "000068020000680200000000000001000000040000006e616d65000100000074030000000200000069640000"
  ^ "080000006e616d655f7461670000090000006e616d655f6461746103000e000000030000000e000000030100"
  ^ "0000000000000000030102000000000000000301030000000000000003010400000000000000030105000000"
  ^ "000000000003010700000000000000030108000000000000000301090000000000000003010a000000000000"
  ^ "0003010b0000000000000003010c0000000000000003010d000000000000000e000000000000000101000304"
  ^ "05060008090a0b0c0d0e0a0000000301292ba0de7766a152000301d420ad5aa84935b90301b762ee5186d4ed"
  ^ "0e0301b58b9d186805c5ea030142e3b8621e368e28030125908f6d8e90627e0301a21ec0d9d626c95103018e"
  ^ "853e6726c690e103012d97b7e4cfec71e80e0000000000000001010003040506000708090a0705090e000000"
  ^ "030415000000aebbbbf0ccb148a6c53b93de201e51d24b2f15d87900030415000000b3f53772f95f9fffc356"
  ^ "c6449da22640abfb6ab4240304140000009f237f952ce05790b04b9decaac031dfd3292ff903041500000060"
  ^ "c070408efe157b8f7683057f7350b86d981303a3030413000000c5623e677431a10ee3a85617e060c0e4c482"
  ^ "f90003041400000064f4f4223d0c0eae9d7a0e8c420455591cc9a2d00304150000004a45c97ec86f5090aa84"
  ^ "72d289addd9887472fcb950304130000008da049168234c447373167f8cdc936956649420304150000003119"
  ^ "9c877492af7124b758a791e66b24096b0be3d203041400000086af1258c1d1bedf0b33f7363e23dd080e4e10"
  ^ "da030415000000ab6fc2eae64f0890c6a05959d862530919fb859cb0030413000000d59c12bb18fc3dc11c8f"
  ^ "329e773e24bc5b49620e00000000000000010100030405060008090a0b0c0d0ebd3700000000f00000000000"
  ^ "0000000000000000000000001400000000000000140000001400000014000000140000000000000014000000"
  ^ "140000001400000014000000140000001400000014000000f000000000000000dc0000000000000000000000"
  ^ "3003000030030000000000000200000002000000696400080000006e616d655f746167000100000001000000"
  ^ "740a000000706f6973736f6e2d323000000010000000143f56d58f2534c96096a8d7f327af3420000000b4ea"
  ^ "c855eba744597e86d8313d4e6290c315422a60abd260dc75617725700adb0200000002000000696400000400"
  ^ "00006e616d65020002000000696401000000040000006e616d6501000000040000006e616d65040000000500"
  ^ "0000616c6963650400000003000000626f6203000000050000006361726f6c02000000040000006461766501"
  ^ "0000000000000020000000c2382fda4093a7660e7c77faa4d483eccc53779db38a8d57eb2b9a9d94db7e047c"
  ^ "2a6ae4"

(* Statements over the restored store and the rows the format-2 build
   answered them with. *)
let golden_v2_answers =
  [
    (`Enc "SELECT * FROM t WHERE name = 'alice'", "0,'alice';4,'alice';8,'alice';12,'alice'");
    (`Enc "SELECT id FROM t WHERE name = 'bob'", "5;9;13");
    ( `Enc "SELECT * FROM t WHERE name = 'carol' OR name = 'dave'",
      "2,'carol';3,'dave';7,'dave';10,'carol'" );
    (`Plain "SELECT * FROM p WHERE name = 'alice'", "0,'alice';4,'alice';8,'alice';12,'alice'");
    (`Plain "SELECT id FROM p WHERE name = 'dave'", "11;15");
    ( `Plain "SELECT * FROM p",
      "0,'alice';1,'bob';2,'carol';4,'alice';5,'bob';6,'carol';8,'alice';9,'bob';10,'carol';"
      ^ "11,'dave';12,'alice';14,'carol';15,'dave'" );
  ]

let render_rows rows =
  String.concat ";"
    (List.map
       (fun r -> String.concat "," (Array.to_list (Array.map Sqldb.Sql.print_value r)))
       rows)

(* A store the format-2 writer checkpointed opens and answers as it
   did; re-checkpointed it becomes WRESNAP3, exactly the dropped fields
   shorter, reloads to the tables' snapshots, and equals what this
   writer checkpoints for the same history. *)
let test_v2_snapshot_opens () =
  with_temp_dir (fun dir ->
      let v2 = Stdx.Bytes_util.of_hex golden_v2_snapshot_hex in
      let f = Store.Io.open_trunc (Store.Snapshot.path ~dir) in
      Store.Io.write f v2;
      Store.Io.close f;
      let store = Store.Engine.open_dir ~dir () in
      let db = Store.Engine.db store in
      let proxy = Wre.Proxy.create (Option.get (Store.Engine.encrypted store "t")) in
      List.iter
        (fun (stmt, expected) ->
          let sql, r =
            match stmt with
            | `Enc sql ->
                (sql, Result.map (fun q -> q.Wre.Proxy.rows) (Wre.Proxy.execute proxy sql))
            | `Plain sql -> (sql, Result.map (fun q -> q.Sqldb.Sql.rows) (Sqldb.Sql.execute db sql))
          in
          Alcotest.(check (result string string)) sql (Ok expected) (Result.map render_rows r))
        golden_v2_answers;
      (* The row-format baseline of both tables, as the format-2 build
         reported it. *)
      List.iter
        (fun name ->
          check_int (name ^ " row-model bytes") 8192
            (Sqldb.Table.row_model_bytes (Sqldb.Database.table db name)))
        [ "p"; "t" ];
      Store.Engine.checkpoint store;
      let v3 = Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)) in
      Alcotest.(check string) "magic" "WRESNAP3" (String.sub v3 0 8);
      check_int "36 + 16 x tables bytes shorter" (String.length v2 - (36 + (16 * 2)))
        (String.length v3);
      let loaded = Option.get (Store.Snapshot.load ~dir) in
      check_int "tables" 2 (List.length loaded.Store.Snapshot.tables);
      List.iter
        (fun (ts : Sqldb.Table.snapshot) ->
          check_bool (ts.s_name ^ " reloads to its snapshot") true
            (ts = Sqldb.Table.snapshot (Sqldb.Database.table db ts.s_name)))
        loaded.Store.Snapshot.tables;
      Store.Engine.close store;
      with_temp_dir (fun fresh ->
          build_compat_store fresh;
          check_bool "same bytes as this writer's checkpoint of the history" true
            (Store.Io.read_file (Store.Snapshot.path ~dir:fresh) = Some v3));
      (* Any other magic is still a hard error. *)
      let f = Store.Io.open_trunc (Store.Snapshot.path ~dir) in
      Store.Io.write f ("WRESNAP1" ^ String.sub v3 8 (String.length v3 - 8));
      Store.Io.close f;
      check_bool "unknown magic rejected" true
        (match Store.Snapshot.load ~dir with
        | exception Store.Snapshot.Corrupt_snapshot _ -> true
        | _ -> false))

(* ---------------- index kind byte ---------------- *)

(* WAL [Create_index] payloads, snapshot index entries and WRE configs
   each carry an index kind byte. Every index is a B-tree, written as
   0; a 1 is a hash index from an older build and opens as the B-tree;
   anything else is corrupt. *)

let kind_record = Store.Record.Create_index { table = "t"; column = "name" }

let kind_config =
  {
    Store.Record.table_name = "t";
    kind = Wre.Scheme.Det;
    fallback = `Reject;
    tag_algo = Crypto.Prf.Hmac_sha256;
    k0 = "k0";
    k1 = "k1";
    plain_schema;
    key_column = "id";
    encrypted_columns = [ "name" ];
    dists = [ ("name", [ ("alice", 2); ("bob", 1) ]) ];
    ranges = [];
    prng = "p";
  }

(* The kind byte sits after the table name, the scheme name and the
   fallback and PRF codes. *)
let kind_config_pos = 4 + 1 + 4 + String.length (Wre.Scheme.to_string Wre.Scheme.Det) + 2

(* Two rows and one index, whose kind byte is the last byte. *)
let kind_table () =
  let t = Sqldb.Table.create ~name:"t" ~schema:plain_schema in
  ignore (Sqldb.Table.insert t (op_row 0));
  ignore (Sqldb.Table.insert t (op_row 1));
  ignore (Sqldb.Table.create_index t ~column:"name");
  Sqldb.Table.freeze t

let encoded f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let with_byte s pos v =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr v);
  Bytes.to_string b

let last s = String.length s - 1

(* Rewrite [dir]'s snapshot with its one index's kind byte set to [v]
   and the footer CRC recomputed, so only the codec can object. The
   byte comes before the u32 WRE count and the u32 CRC. *)
let patch_snapshot_kind ~dir v =
  let data = Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)) in
  let data = with_byte data (String.length data - 9) v in
  let body = String.sub data 8 (String.length data - 12) in
  let crc = Int32.to_int (Store.Crc32.digest body) land 0xFFFFFFFF in
  let footer = encoded (fun b -> Store.Codec.put_u32 b crc) in
  let f = Store.Io.open_trunc (Store.Snapshot.path ~dir) in
  Store.Io.write f (String.sub data 0 (String.length data - 4) ^ footer);
  Store.Io.close f

(* Pinned to the bytes older builds wrote for the same B-tree, so
   stores written before and after stay interchangeable. *)
let test_kind_byte_pinned () =
  let hex = Stdx.Bytes_util.to_hex in
  Alcotest.(check string) "Create_index record" "020100000074040000006e616d6500"
    (hex (Store.Record.encode kind_record));
  Alcotest.(check string) "WRE config"
    ("010000007403000000646574000000020000006b30020000006b31020000000200000069640000040000006e"
      ^ "616d65020002000000696401000000040000006e616d6501000000040000006e616d65020000000500000061"
      ^ "6c6963650200000003000000626f6201000000000000000100000070")
    (hex (encoded (fun b -> Store.Record.put_wre_config b kind_config)));
  Alcotest.(check string) "table snapshot"
    ("0100000074020000000200000069640000040000006e616d6502000200000002000000020000000301000000"
      ^ "000000000003010100000000000000020000000000000001010202000000030305000000616c696365030303"
      ^ "000000626f620200000000000000010102030000000028000000000014000000140000002800000000000000"
      ^ "280000000000000001000000040000006e616d6500")
    (hex (encoded (fun b -> Store.Codec.put_table_view b (kind_table ()))));
  check_int "config kind byte" 0
    (Char.code (encoded (fun b -> Store.Record.put_wre_config b kind_config)).[kind_config_pos])

let test_kind_byte_legacy_hash_decodes () =
  let record = Store.Record.encode kind_record in
  check_bool "Create_index with kind 1" true
    (Store.Record.decode (with_byte record (last record) 1) = kind_record);
  let config = encoded (fun b -> Store.Record.put_wre_config b kind_config) in
  check_bool "WRE config with kind 1" true
    (Store.Record.get_wre_config (Store.Codec.cursor (with_byte config kind_config_pos 1))
    = kind_config);
  let view = kind_table () in
  let snap = Sqldb.Table.snapshot_of_view view in
  let table = encoded (fun b -> Store.Codec.put_table_view b view) in
  check_bool "snapshot index entry with kind 1" true
    (Store.Codec.get_table_snapshot (Store.Codec.cursor (with_byte table (last table) 1)) = snap);
  with_temp_dir (fun dir ->
      Store.Snapshot.write_views ~dir ~last_lsn:0L ~views:[ view ] ~wre:[];
      patch_snapshot_kind ~dir 1;
      check_bool "snapshot file with kind 1" true
        ((Option.get (Store.Snapshot.load ~dir)).Store.Snapshot.tables = [ snap ]))

(* The tag-3 records an older build logged for inserting [op_row 0]
   .. [op_row 7] into table "p". *)
let legacy_p_inserts =
  [
    "030100000070020000000100000000000000000305000000616c69636500";
    "030100000070020000000101000000000000000303000000626f6200";
    "0301000000700200000001020000000000000003050000006361726f6c00";
    "0301000000700200000001030000000000000003040000006461766500";
    "030100000070020000000104000000000000000305000000616c69636500";
    "030100000070020000000105000000000000000303000000626f6200";
    "0301000000700200000001060000000000000003050000006361726f6c00";
    "0301000000700200000001070000000000000003040000006461766500";
  ]

(* A store whose WAL created its index as a hash index, and inserted
   its rows with the per-row records of that build, replays it as a
   B-tree that serves the lookups. *)
let test_kind_byte_legacy_hash_store_opens () =
  with_temp_dir (fun dir ->
      let encode = Store.Record.encode in
      let hash_index = encode (Store.Record.Create_index { table = "p"; column = "name" }) in
      ignore
        (wal_roundtrip_payloads dir
           (encode (Store.Record.Create_table { name = "p"; schema = plain_schema })
           :: with_byte hash_index (last hash_index) 1
           :: List.map Stdx.Bytes_util.of_hex legacy_p_inserts));
      let store = Store.Engine.open_dir ~dir () in
      check_int "replayed" 10 (Store.Engine.recovery store).Store.Engine.replayed;
      let view = Sqldb.Table.freeze (Sqldb.Database.table (Store.Engine.db store) "p") in
      let alice = Sqldb.Predicate.Eq ("name", Sqldb.Value.Text "alice") in
      check_bool "index plan" true
        (Sqldb.Executor.explain view alice = Sqldb.Executor.Index_scan "name");
      Alcotest.(check (array int)) "lookup" [| 0; 4 |]
        (Sqldb.Executor.run_view view ~projection:Sqldb.Executor.Row_ids alice).row_ids;
      Store.Engine.close store)

let test_kind_byte_unknown_rejected () =
  let record = Store.Record.encode kind_record in
  check_bool "record decoder raises Corrupt" true
    (match Store.Record.decode (with_byte record (last record) 2) with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false);
  with_temp_dir (fun dir ->
      Store.Snapshot.write_views ~dir ~last_lsn:0L ~views:[ kind_table () ] ~wre:[];
      patch_snapshot_kind ~dir 2;
      check_bool "Snapshot.load raises Corrupt_snapshot" true
        (match Store.Snapshot.load ~dir with
        | exception Store.Snapshot.Corrupt_snapshot _ -> true
        | _ -> false))

let test_atomic_write_text_crash_safe () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "report.json" in
      Store.Io.atomic_write_text ~path "old";
      Store.Failpoints.arm_at_event "atomic.rename" ~n:1;
      check_bool "crash fires" true
        (match Store.Io.atomic_write_text ~path "new" with
        | exception Store.Failpoints.Crash _ -> true
        | () -> false);
      Store.Failpoints.disarm ();
      Alcotest.(check (option string)) "old content intact" (Some "old")
        (Store.Io.read_file path);
      Store.Io.atomic_write_text ~path "new2";
      Alcotest.(check (option string)) "publish works after crash" (Some "new2")
        (Store.Io.read_file path))

(* ---------------- fault-injection matrix ---------------- *)

let n_ops = 8

(* Run the insert workload against a base store with a failpoint armed
   by [arm]. Returns how many inserts were acknowledged (returned
   normally) before the simulated crash. *)
let run_crash_trial ~arm dir =
  setup_base dir;
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  let completed = ref 0 in
  let crashed = ref false in
  arm ();
  (try
     for i = 0 to n_ops - 1 do
       ignore (Wre.Encrypted_db.insert edb (op_row i));
       incr completed
     done;
     Store.Engine.close store
   with Store.Failpoints.Crash _ -> crashed := true);
  Store.Failpoints.disarm ();
  (!completed, !crashed)

(* The recovery invariant: reopening yields exactly a committed prefix
   — at least every acknowledged op (group_commit = 1 means each was
   fsynced before returning), at most one more (an op whose frame fully
   landed but which never returned). Completing the remaining ops must
   then produce a state byte-identical to the uncrashed reference. *)
let verify_recovery ~label ~completed dir (ref_snap, ref_ids) =
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  let t = Wre.Encrypted_db.table edb in
  let j = Sqldb.Table.row_count t in
  check_bool (label ^ ": at least every acked op") true (j >= completed);
  check_bool (label ^ ": at most one unacked op") true (j <= completed + 1);
  for i = j to n_ops - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  check_bool (label ^ ": final state = uncrashed reference") true
    (Sqldb.Table.snapshot t = ref_snap);
  check_bool (label ^ ": search tags agree") true
    ((Sqldb.Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection:Row_ids (alice edb))
       .row_ids
    = ref_ids);
  Store.Engine.close store

(* Enumerate the crash matrix for the workload: total bytes written and
   occurrences of each named sync point. *)
let measure_workload () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      Store.Failpoints.arm_counting ();
      for i = 0 to n_ops - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let bytes = Store.Failpoints.counted_bytes () in
      let events = Store.Failpoints.counted_events () in
      Store.Failpoints.disarm ();
      Store.Engine.close store;
      (bytes, events))

let test_crash_matrix_byte_cuts () =
  let reference = reference_state n_ops in
  let bytes, _ = measure_workload () in
  check_bool "workload writes bytes" true (bytes > 0);
  (* Sample torn-write boundaries across the whole workload, both with
     the written-but-unsynced bytes surviving (page cache flushed
     anyway) and with them lost (power cut). *)
  let cuts =
    List.sort_uniq compare
      [ 0; 1; 15; bytes / 4; bytes / 2; (3 * bytes) / 4; bytes - 1 ]
  in
  List.iter
    (fun lose ->
      List.iter
        (fun cut ->
          with_temp_dir (fun dir ->
              let label = Printf.sprintf "cut %d bytes (lose=%b)" cut lose in
              let completed, crashed =
                run_crash_trial ~arm:(fun () -> Store.Failpoints.arm_cut_bytes ~lose_unsynced:lose cut) dir
              in
              check_bool (label ^ ": crashed") true crashed;
              verify_recovery ~label ~completed dir reference))
        cuts)
    [ false; true ]

let test_crash_matrix_sync_points () =
  let reference = reference_state n_ops in
  let _, events = measure_workload () in
  check_bool "wal.write observed" true (List.mem_assoc "wal.write" events);
  check_bool "wal.fsync observed" true (List.mem_assoc "wal.fsync" events);
  List.iter
    (fun lose ->
      List.iter
        (fun (point, count) ->
          (* First and last occurrence of every named point. *)
          List.iter
            (fun n ->
              with_temp_dir (fun dir ->
                  let label = Printf.sprintf "%s #%d (lose=%b)" point n lose in
                  let completed, crashed =
                    run_crash_trial
                      ~arm:(fun () -> Store.Failpoints.arm_at_event ~lose_unsynced:lose point ~n)
                      dir
                  in
                  check_bool (label ^ ": crashed") true crashed;
                  verify_recovery ~label ~completed dir reference))
            (List.sort_uniq compare [ 1; count ]))
        events)
    [ false; true ]

let test_crash_during_checkpoint () =
  let reference = reference_state n_ops in
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          setup_base dir;
          let store = Store.Engine.open_dir ~dir () in
          let edb = Option.get (Store.Engine.encrypted store "t") in
          for i = 0 to n_ops - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          Store.Failpoints.arm_at_event ~lose_unsynced:true point ~n:1;
          let crashed =
            match Store.Engine.checkpoint store with
            | exception Store.Failpoints.Crash _ -> true
            | () -> false
          in
          Store.Failpoints.disarm ();
          check_bool (point ^ ": checkpoint crashed") true crashed;
          (* Nothing was acknowledged during the checkpoint, so
             recovery must reproduce all n_ops rows — from the old
             snapshot + WAL, or from the new snapshot, depending on
             where the crash landed. *)
          verify_recovery ~label:("checkpoint @ " ^ point) ~completed:n_ops dir reference))
    [ "snapshot.write"; "snapshot.fsync"; "snapshot.rename"; "dir.fsync" ]

let test_checkpoint_crash_reader_holds_old_epoch () =
  (* A reader freezes an epoch mid-workload, the writer keeps inserting,
     then a checkpoint crashes at each point of its write/fsync/rename
     sequence. The frozen view shares nothing with the snapshot writer,
     so it must keep answering byte-identically through the crash — and
     recovery from disk must still reproduce the full workload. *)
  let reference = reference_state n_ops in
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          setup_base dir;
          let store = Store.Engine.open_dir ~dir () in
          let edb = Option.get (Store.Engine.encrypted store "t") in
          let half = n_ops / 2 in
          for i = 0 to half - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          let view = Wre.Encrypted_db.freeze edb in
          let alice_at_freeze =
            (Sqldb.Executor.run_view view ~projection:Row_ids (alice edb)).row_ids
          in
          for i = half to n_ops - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          Store.Failpoints.arm_at_event ~lose_unsynced:true point ~n:1;
          let crashed =
            match Store.Engine.checkpoint store with
            | exception Store.Failpoints.Crash _ -> true
            | () -> false
          in
          Store.Failpoints.disarm ();
          check_bool (point ^ ": checkpoint crashed") true crashed;
          let alice_after = (Sqldb.Executor.run_view view ~projection:Row_ids (alice edb)).row_ids in
          check_bool (point ^ ": view answers unchanged") true (alice_after = alice_at_freeze);
          check_int (point ^ ": view stays at its epoch") half (Sqldb.Read_view.live_count view);
          check_bool (point ^ ": writer rows invisible through view") true
            (Sqldb.Read_view.live_count view < Sqldb.Table.row_count (Wre.Encrypted_db.table edb));
          verify_recovery ~label:("checkpoint+reader @ " ^ point) ~completed:n_ops dir reference))
    [ "snapshot.write"; "snapshot.fsync"; "snapshot.rename" ]

let test_group_commit_window_of_loss () =
  with_temp_dir (fun dir ->
      setup_base dir;
      (* group_commit = 10: three acked-in-memory inserts ride an
         unsynced window; a power cut (lose_unsynced) drops them. This
         is the documented durability trade — the recovered state must
         still be a clean prefix (here: the base), never garbage. *)
      let store = Store.Engine.open_dir ~group_commit:10 ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 2 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Failpoints.arm_at_event ~lose_unsynced:true "wal.write" ~n:1;
      let crashed =
        match Wre.Encrypted_db.insert edb (op_row 3) with
        | exception Store.Failpoints.Crash _ -> true
        | _ -> false
      in
      Store.Failpoints.disarm ();
      check_bool "crash fires" true crashed;
      let store = Store.Engine.open_dir ~dir () in
      let t = Wre.Encrypted_db.table (Option.get (Store.Engine.encrypted store "t")) in
      check_int "unsynced window lost, base intact" 0 (Sqldb.Table.row_count t);
      Store.Engine.close store)

(* ---------------- statement-atomic writes ---------------- *)

(* Statements through the proxy, run after [n_ops] inserted rows
   (names alice, bob, carol, dave, twice over): a 2-row UPDATE, a
   2-row DELETE and an INSERT. Each is one write: one WAL record, one
   fsync, and after a crash the whole statement or none of it. *)
let statements =
  [|
    "UPDATE t SET name = 'bob' WHERE name = 'alice'";
    "DELETE FROM t WHERE name = 'carol'";
    "INSERT INTO t VALUES (8, 'dave')";
  |]

let run_statement edb sql =
  match Wre.Proxy.execute (Wre.Proxy.create edb) sql with
  | Ok r -> r.Wre.Proxy.affected
  | Error e -> Alcotest.fail (sql ^ ": " ^ e)

(* The uncrashed tables: [refs.(k)] before statement [k], the last
   after every statement. *)
let statement_refs () =
  let edb = memory_edb () in
  for i = 0 to n_ops - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  let snap () = Sqldb.Table.snapshot (Wre.Encrypted_db.table edb) in
  let before = snap () in
  Array.append [| before |]
    (Array.map
       (fun sql ->
         ignore (run_statement edb sql);
         snap ())
       statements)

(* Open a store holding the rows and statements 0 .. k-1, arm a
   failpoint with [arm], and run statement [k]. Returns whether it
   crashed, and what the workload counted if nothing was armed. *)
let statement_trial ~arm dir k =
  setup_base dir;
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  for i = 0 to n_ops - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  for j = 0 to k - 1 do
    ignore (run_statement edb statements.(j))
  done;
  arm ();
  let crashed =
    match run_statement edb statements.(k) with
    | exception Store.Failpoints.Crash _ -> true
    | _ -> false
  in
  let counted = (Store.Failpoints.counted_bytes (), Store.Failpoints.counted_events ()) in
  Store.Failpoints.disarm ();
  if not crashed then Store.Engine.close store;
  (crashed, counted)

let test_one_record_per_statement () =
  Array.iteri
    (fun k sql ->
      with_temp_dir (fun dir ->
          let _, (_, events) = statement_trial ~arm:Store.Failpoints.arm_counting dir k in
          Alcotest.(check (list (pair string int)))
            (sql ^ ": one record, one fsync")
            [ ("wal.fsync", 1); ("wal.write", 1) ]
            events))
    statements

(* Reopening after a crash inside statement [k] yields exactly the
   table before it or the table after it, and running the rest of the
   statements then reproduces the uncrashed reference, weak-randomness
   stream included. *)
let verify_statement_recovery ~label dir k refs =
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  let snap () = Sqldb.Table.snapshot (Wre.Encrypted_db.table edb) in
  let got = snap () in
  let next =
    if got = refs.(k) then k
    else if got = refs.(k + 1) then k + 1
    else Alcotest.fail (label ^ ": recovered neither the pre- nor the post-statement table")
  in
  for j = next to Array.length statements - 1 do
    ignore (run_statement edb statements.(j))
  done;
  check_bool (label ^ ": final state = uncrashed reference") true
    (snap () = refs.(Array.length statements));
  Store.Engine.close store

let test_statement_crash_matrix () =
  let refs = statement_refs () in
  Array.iteri
    (fun k sql ->
      let _, (bytes, events) =
        with_temp_dir (fun dir -> statement_trial ~arm:Store.Failpoints.arm_counting dir k)
      in
      let cuts =
        List.sort_uniq compare [ 0; 1; 15; bytes / 4; bytes / 2; (3 * bytes) / 4; bytes - 1 ]
      in
      let arms =
        List.map
          (fun cut ->
            ( Printf.sprintf "cut %d bytes" cut,
              fun ~lose_unsynced -> Store.Failpoints.arm_cut_bytes ~lose_unsynced cut ))
          cuts
        @ List.concat_map
            (fun (point, count) ->
              List.map
                (fun n ->
                  ( Printf.sprintf "%s #%d" point n,
                    fun ~lose_unsynced -> Store.Failpoints.arm_at_event ~lose_unsynced point ~n ))
                (List.sort_uniq compare [ 1; count ]))
            events
      in
      List.iter
        (fun lose ->
          List.iter
            (fun (what, arm) ->
              with_temp_dir (fun dir ->
                  let label = Printf.sprintf "%s: %s (lose=%b)" sql what lose in
                  let crashed, _ =
                    statement_trial ~arm:(fun () -> arm ~lose_unsynced:lose) dir k
                  in
                  check_bool (label ^ ": crashed") true crashed;
                  verify_statement_recovery ~label dir k refs))
            arms)
        [ false; true ])
    statements

(* ---------------- Io syscall hardening ---------------- *)

(* Regression (PR 7): [Io.write] used to issue one [Unix.write_substring]
   and assume it took the whole string — an EINTR/EAGAIN or short write
   either killed the caller or silently dropped bytes, and [Io.size]
   diverged from the file. [Failpoints.arm_syscalls] scripts the kernel's
   answers so the retry loop itself is what's under test. *)

let test_io_write_retries_transient_errors () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.bin" in
      let f = Store.Io.open_trunc path in
      Store.Failpoints.arm_syscalls
        [ `Errno Unix.EINTR; `Short 3; `Errno Unix.EAGAIN; `Short 4 ];
      Store.Io.write f "hello world";
      Store.Failpoints.disarm ();
      check_int "size accounts every byte" 11 (Store.Io.size f);
      Store.Io.close f;
      check_bool "content intact" true (Store.Io.read_file path = Some "hello world"))

let test_io_write_partial_progress_accounted () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.bin" in
      let f = Store.Io.open_trunc path in
      Store.Io.write f "base-";
      (* Three bytes land, then the disk fills: the error must propagate
         AND the recorded size must match exactly what reached the fd. *)
      Store.Failpoints.arm_syscalls [ `Short 3; `Errno Unix.ENOSPC ];
      let raised =
        match Store.Io.write f "abcdefgh" with
        | () -> false
        | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true
      in
      Store.Failpoints.disarm ();
      check_bool "fatal errno propagates" true raised;
      check_int "size = prior + partial progress" 8 (Store.Io.size f);
      Store.Io.close f;
      check_bool "disk matches bookkeeping" true (Store.Io.read_file path = Some "base-abc"))

let test_wal_append_under_interrupts () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.bin" in
      let wal = Store.Wal.create ~path ~group_commit:1 ~next_lsn:1L in
      Store.Failpoints.arm_syscalls
        [ `Errno Unix.EINTR; `Short 2; `Errno Unix.EAGAIN; `Short 1; `Errno Unix.EINTR ];
      ignore (Store.Wal.append wal "alpha");
      ignore (Store.Wal.append wal "beta");
      Store.Failpoints.disarm ();
      Store.Wal.close wal;
      let got = ref [] in
      let max_lsn, _ = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "frames intact through interrupts" true (List.rev !got = [ "alpha"; "beta" ]);
      check_bool "lsn" true (max_lsn = 2L))

(* ---------------- suite ---------------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_vector;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "integer edges" `Quick test_codec_integer_edges;
          Alcotest.test_case "truncation rejected" `Quick test_codec_truncation_rejected;
          Alcotest.test_case "bounded cursor" `Quick test_codec_bounded_cursor;
          Alcotest.test_case "table snapshot" `Quick test_codec_table_snapshot_roundtrip;
          Alcotest.test_case "record ops" `Quick test_record_roundtrip;
          Alcotest.test_case "legacy records decode" `Quick test_legacy_records_decode;
        ] );
      ( "index kind",
        [
          Alcotest.test_case "bytes pinned" `Quick test_kind_byte_pinned;
          Alcotest.test_case "legacy hash decodes" `Quick test_kind_byte_legacy_hash_decodes;
          Alcotest.test_case "legacy hash store opens" `Quick
            test_kind_byte_legacy_hash_store_opens;
          Alcotest.test_case "unknown kind rejected" `Quick test_kind_byte_unknown_rejected;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt tail" `Quick test_wal_corrupt_tail;
          Alcotest.test_case "group-commit knob" `Quick test_wal_group_commit_knob;
          Alcotest.test_case "unknown record fails open" `Quick test_wal_unknown_record_fails_open;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "plain table" `Quick test_plain_table_roundtrip;
          Alcotest.test_case "encrypted + tag continuity" `Quick
            test_encrypted_roundtrip_continues_stream;
          Alcotest.test_case "checkpoint tail replay" `Quick test_checkpoint_replays_only_tail;
          Alcotest.test_case "vacuum + checkpoint" `Quick
            test_vacuum_checkpoint_shrinks_no_resurrection;
          Alcotest.test_case "vacuum with nothing to reclaim" `Quick test_vacuum_nothing_to_reclaim;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "tmp ignored" `Quick test_snapshot_tmp_ignored;
          Alcotest.test_case "corrupt rejected" `Quick test_corrupt_snapshot_rejected;
          Alcotest.test_case "checkpoint roundtrips views" `Quick test_checkpoint_roundtrips_views;
          Alcotest.test_case "WRESNAP2 store opens" `Quick test_v2_snapshot_opens;
          Alcotest.test_case "atomic_write_text" `Quick test_atomic_write_text_crash_safe;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "byte-cut matrix" `Slow test_crash_matrix_byte_cuts;
          Alcotest.test_case "sync-point matrix" `Slow test_crash_matrix_sync_points;
          Alcotest.test_case "crash during checkpoint" `Quick test_crash_during_checkpoint;
          Alcotest.test_case "checkpoint crash with live reader" `Quick
            test_checkpoint_crash_reader_holds_old_epoch;
          Alcotest.test_case "group-commit loss window" `Quick test_group_commit_window_of_loss;
          Alcotest.test_case "one record per statement" `Quick test_one_record_per_statement;
          Alcotest.test_case "statement crash matrix" `Slow test_statement_crash_matrix;
        ] );
      ( "io_syscalls",
        [
          Alcotest.test_case "transient errors retried" `Quick
            test_io_write_retries_transient_errors;
          Alcotest.test_case "partial progress accounted" `Quick
            test_io_write_partial_progress_accounted;
          Alcotest.test_case "wal append under interrupts" `Quick
            test_wal_append_under_interrupts;
        ] );
      ( "properties",
        q [ qcheck_codec_value_roundtrip; qcheck_crc32_matches_reference; qcheck_crc32_update_sub ]
      );
    ]
