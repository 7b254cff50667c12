(* Ingest at scale: the batched pipeline (Encrypted_db.insert_batch)
   driven by a streaming generator — plaintext rows are produced in
   chunks and never materialized as one array — so the paper's 10M-row
   SPARTA load fits in bounded client memory. Reports client-side
   wall-clock rows/sec, the columnar-vs-row-format storage footprint
   (dictionary compression of the heavy-tailed tag columns), and the
   cost of a streaming checkpoint of the finished table.

   Emits BENCH_ingest.json ({"name","config","metrics"}) so later PRs
   have a throughput trajectory to compare against. *)

let chunk_size = 1024
let ingest_chunk_rows = 65_536
let seq_baseline_cap = 100_000

let json_obj = Bench_util.json_obj

let build_edb ~kind ~dist_of =
  let db = Sqldb.Database.create () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"main" ~plain_schema:Sparta.Generator.schema
      ~key_column:"id" ~encrypted_columns:Bench_util.enc_columns ~kind ~dist_of ~master ~seed:2L
      ()
  in
  (db, edb)

(* Split the head of a sequence into an array of at most [k] rows. *)
let take_chunk k seq =
  let buf = ref [] and n = ref 0 and rest = ref seq in
  (try
     while !n < k do
       match !rest () with
       | Seq.Nil ->
           rest := Seq.empty;
           raise Exit
       | Seq.Cons (row, tl) ->
           buf := row :: !buf;
           incr n;
           rest := tl
     done
   with Exit -> ());
  (Array.of_list (List.rev !buf), !rest)

(* Stream the whole load through insert_batch in bounded chunks;
   returns the ingest wall time (generation + crypto + heap append). *)
let ingest_streaming ?pool edb ~rows:n =
  let (), ns =
    Stdx.Clock.time_it (fun () ->
        let seq = ref (Bench_util.row_seq n) in
        let continue = ref true in
        while !continue do
          let chunk, rest = take_chunk ingest_chunk_rows !seq in
          seq := rest;
          if Array.length chunk = 0 then continue := false
          else ignore (Wre.Encrypted_db.insert_batch ?pool ~chunk_size edb chunk : int)
        done)
  in
  ns

(* Streaming checkpoint of the finished table into a scratch dir:
   proves the 10M-row state spills to disk in bounded memory and
   reports the cost. *)
let checkpoint_streaming table =
  let dir = Printf.sprintf "bench_ingest_ckpt.%d.tmp" (Unix.getpid ()) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let view = Sqldb.Table.freeze table in
      let (), ns =
        Stdx.Clock.time_it (fun () ->
            Store.Snapshot.write_views ~dir ~last_lsn:0L ~views:[ view ] ~wre:[])
      in
      let bytes =
        match Store.Io.read_file (Store.Snapshot.path ~dir) with
        | Some s -> String.length s
        | None -> 0
      in
      (ns, bytes))

let is_tag_col name =
  let n = String.length name in
  n > 4 && String.sub name (n - 4) 4 = "_tag"

let run ~rows:n () =
  let domain_counts = if n > 500_000 then [ 1 ] else [ 1; 2; 4 ] in
  Bench_util.heading
    (Printf.sprintf "Ingest: streamed batches, %d rows, chunk %d, domains %s" n chunk_size
       (String.concat "/" (List.map string_of_int domain_counts)));
  let dist_of = Bench_util.dist_of_scale n in
  let kind = Wre.Scheme.Poisson 1000.0 in
  let rate rows ns = float_of_int rows /. (Float.max ns 1.0 /. 1e9) in
  let t =
    Stdx.Table_fmt.create [ "path"; "domains"; "rows"; "wall (s)"; "rows/sec" ]
  in
  let add_row label domains rows ns =
    Stdx.Table_fmt.add_row t
      [
        label;
        string_of_int domains;
        string_of_int rows;
        Printf.sprintf "%.2f" (ns /. 1e9);
        Printf.sprintf "%.0f" (rate rows ns);
      ]
  in
  (* Row-at-a-time baseline, capped: it exists to show the batched
     path's advantage, not to pay the full load twice. *)
  let seq_n = min n seq_baseline_cap in
  let seq_ns =
    let _db, edb = build_edb ~kind ~dist_of in
    let (), ns =
      Stdx.Clock.time_it (fun () ->
          Seq.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) (Bench_util.row_seq seq_n))
    in
    ns
  in
  add_row "insert (row-at-a-time)" 1 seq_n seq_ns;
  (* Batched, streamed. The last (largest-domain) run's table is kept
     for the storage and checkpoint measurements. *)
  let main_table = ref None in
  let batch_ns =
    List.map
      (fun domains ->
        let _db, edb = build_edb ~kind ~dist_of in
        let ns =
          if domains <= 1 then ingest_streaming edb ~rows:n
          else
            Stdx.Task_pool.with_pool ~domains (fun pool -> ingest_streaming ~pool edb ~rows:n)
        in
        add_row "insert_batch (streamed)" domains n ns;
        main_table := Some (Wre.Encrypted_db.table edb);
        (domains, ns))
      domain_counts
  in
  Stdx.Table_fmt.print t;
  let table = Option.get !main_table in
  (* Storage: columnar pages + dictionaries vs the row-format shadow. *)
  let stats = Sqldb.Table.storage_stats table in
  let columnar = stats.st_heap_pages * Sqldb.Pager.cost_model.page_size in
  let row_model = stats.st_row_model_bytes in
  let tag_plain, tag_packed =
    Array.fold_left
      (fun (p, k) (c : Sqldb.Table.column_stats) ->
        if is_tag_col c.st_column then (p + c.st_plain_bytes, k + c.st_dict_bytes + c.st_ids_bytes)
        else (p, k))
      (0, 0) stats.st_columns
  in
  let tag_ratio = float_of_int tag_plain /. float_of_int (max tag_packed 1) in
  let ckpt_ns, ckpt_bytes = checkpoint_streaming table in
  let rss = Bench_util.peak_rss_mib () in
  Printf.printf
    "storage: columnar %.1f MiB vs row-format %.1f MiB (%.2fx); tag columns %.1f MiB -> %.1f \
     MiB (%.2fx)\n\
     checkpoint: %.1f MiB streamed in %.2f s; peak RSS %.1f MiB\n"
    (Bench_util.mib columnar) (Bench_util.mib row_model)
    (float_of_int row_model /. float_of_int (max columnar 1))
    (Bench_util.mib tag_plain) (Bench_util.mib tag_packed) tag_ratio
    (Bench_util.mib ckpt_bytes) (ckpt_ns /. 1e9) rss;
  let cores = Domain.recommended_domain_count () in
  let ns_1d = List.assoc 1 batch_ns in
  let metrics =
    [
      ("seq_rows_per_sec", Printf.sprintf "%.1f" (rate seq_n seq_ns));
      ("ingest_rows_per_sec", Printf.sprintf "%.1f" (rate n ns_1d));
    ]
    @ List.map
        (fun (d, ns) ->
          (Printf.sprintf "batch_rows_per_sec_%dd" d, Printf.sprintf "%.1f" (rate n ns)))
        batch_ns
    @ (match List.assoc_opt 4 batch_ns with
      | Some ns4 -> [ ("speedup_4d_vs_1d", Printf.sprintf "%.3f" (ns_1d /. Float.max ns4 1.0)) ]
      | None -> [])
    @ [
        ("columnar_heap_bytes", string_of_int columnar);
        ("row_model_heap_bytes", string_of_int row_model);
        ( "dict_compression_ratio",
          Printf.sprintf "%.3f" (float_of_int row_model /. float_of_int (max columnar 1)) );
        ("tag_plain_bytes", string_of_int tag_plain);
        ("tag_packed_bytes", string_of_int tag_packed);
        ("tag_compression_ratio", Printf.sprintf "%.3f" tag_ratio);
        ("columnar_smaller", if columnar < row_model then "true" else "false");
        ("checkpoint_s", Printf.sprintf "%.3f" (ckpt_ns /. 1e9));
        ("checkpoint_mib", Printf.sprintf "%.1f" (Bench_util.mib ckpt_bytes));
        ("peak_rss_mib", Printf.sprintf "%.1f" rss);
      ]
  in
  let json =
    json_obj
      [
        ("name", "\"ingest\"");
        ( "config",
          json_obj
            [
              ("rows", string_of_int n);
              ("chunk_size", string_of_int chunk_size);
              ("ingest_chunk_rows", string_of_int ingest_chunk_rows);
              ("seq_baseline_rows", string_of_int seq_n);
              ("scheme", "\"poisson-1000\"");
              ("domain_counts", "[" ^ String.concat ", " (List.map string_of_int domain_counts) ^ "]");
              ("cores", string_of_int cores);
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_ingest.json" json;
  Printf.printf
    "wrote BENCH_ingest.json (machine has %d usable core%s; domain counts beyond that\n\
     cannot speed up the crypto phase)\n"
    cores
    (if cores = 1 then "" else "s")
