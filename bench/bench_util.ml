(* Shared machinery for the experiment harness: dataset construction,
   query execution under the paper's cold/warm protocols, and result
   aggregation by result-size bucket. *)

open Sqldb

type scale = { label : string; rows : int }

let scales = [ ("100k", 100_000); ("1m", 1_000_000); ("10m", 10_000_000) ]

let default_rows = 100_000

let data_seed = 20_190_624L (* DSN 2019 *)

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let generate_rows n =
  let gen = Sparta.Generator.create ~seed:data_seed in
  Array.of_seq (Sparta.Generator.rows gen ~n)

(* Same rows as {!generate_rows}, as a fresh single-pass sequence — the
   10M-row ingest path streams these into chunks instead of holding the
   whole plaintext array. *)
let row_seq n = Sparta.Generator.rows (Sparta.Generator.create ~seed:data_seed) ~n

let enc_columns = Sparta.Generator.encrypted_columns

let dist_of_rows rows =
  Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns:enc_columns (Array.to_seq rows)

(* Streaming profile pass: one generator sweep, no materialized rows. *)
let dist_of_scale n =
  Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns:enc_columns (row_seq n)

(* Peak resident set (VmHWM) in MiB, from /proc/self/status; 0.0 where
   procfs is unavailable. High-water mark, so read it at exit. *)
let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception _ -> 0.0
  | status -> (
      let rec find = function
        | [] -> 0.0
        | line :: rest ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else find rest
      in
      try find (String.split_on_char '\n' status) with Scanf.Scan_failure _ | End_of_file -> 0.0)

(* Plaintext reference database: same table, same indexed columns. *)
let build_plain rows =
  let db = Database.create () in
  let t = Database.create_table db ~name:"main" ~schema:Sparta.Generator.schema in
  ignore (Table.create_index t ~column:"id");
  List.iter (fun c -> ignore (Table.create_index t ~column:c)) enc_columns;
  let (), wall_ns =
    Stdx.Clock.time_it (fun () -> Array.iter (fun r -> ignore (Table.insert t r)) rows)
  in
  (t, wall_ns)

let build_encrypted ~kind ~dist_of rows =
  let db = Database.create () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"main" ~plain_schema:Sparta.Generator.schema
      ~key_column:"id" ~encrypted_columns:enc_columns ~kind ~master ~dist_of ~seed:2L ()
  in
  let (), wall_ns =
    Stdx.Clock.time_it (fun () ->
        Array.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows)
  in
  (edb, wall_ns)

let make_queries ~dist_of ~n =
  Sparta.Query_gen.generate ~seed:3L ~columns:enc_columns
    ~counts:(fun col ->
      let d = dist_of col in
      Array.to_list
        (Array.map (fun v -> (v, Dist.Empirical.count d v)) (Dist.Empirical.support d)))
    ~n ()

(* Creation cost = wall-clock client work (crypto and row building)
   plus the modeled write I/O for every dirtied page (heap +
   indexes), matching the paper's end-to-end load measurement. *)
let creation_seconds ~total_bytes ~wall_ns =
  let pages = float_of_int total_bytes /. float_of_int Pager.cost_model.page_size in
  (wall_ns +. (pages *. Pager.cost_model.io_miss_ns)) /. 1e9

type cache_mode = Cold | Warm

type query_cost = { bucket : int; sim_ms : float }

(* Each query runs with [cache] installed on this domain: [Cold]
   clears it first, [Warm] keeps what earlier queries left in it. *)
let with_mode ~cache ~mode f =
  if mode = Cold then Pager.clear cache;
  Pager.with_cache cache f

(* Run the query mix against a plaintext table. *)
let run_plain_queries ~cache ~table ~projection ~mode queries =
  List.map
    (fun (q : Sparta.Query_gen.query) ->
      let r =
        with_mode ~cache ~mode (fun () ->
            Executor.run_view (Table.freeze table) ~projection
              (Predicate.Eq (q.column, Value.Text q.value)))
      in
      { bucket = Sparta.Query_gen.bucket_of q.expected; sim_ms = Pager.sim_ms r.stats })
    queries

(* Run the query mix against an encrypted database: the server query
   the paper times, the rewritten tag IN-list over a frozen view. *)
let run_encrypted_queries ~cache ~edb ~projection ~mode queries =
  List.map
    (fun (q : Sparta.Query_gen.query) ->
      let r =
        with_mode ~cache ~mode (fun () ->
            Executor.run_view (Wre.Encrypted_db.freeze edb) ~projection
              (Wre.Encrypted_db.search_predicate edb ~column:q.column q.value))
      in
      { bucket = Sparta.Query_gen.bucket_of q.expected; sim_ms = Pager.sim_ms r.stats })
    queries

(* Mean cost per result-size bucket; buckets with no queries yield
   None. *)
let by_bucket costs =
  Array.init 5 (fun b ->
      let sims =
        List.filter_map (fun c -> if c.bucket = b then Some c.sim_ms else None) costs
      in
      if sims = [] then None else Some (Stdx.Stats.mean (Array.of_list sims)))

let fmt_opt = function None -> "-" | Some v -> Printf.sprintf "%.2f" v

(* Minimal JSON emission for the BENCH_*.json trajectory files; values
   are pre-rendered strings so callers control formatting. *)
let json_field_list fields =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)

let json_obj fields = "{" ^ json_field_list fields ^ "}"

(* Percentile summary of a registered histogram, straight from the
   process-wide registry. *)
let json_histogram name =
  let s = Obs.Metrics.summarize (Obs.Metrics.histogram name) in
  json_obj
    [
      ("count", string_of_int s.Obs.Metrics.count);
      ("mean_ns", Printf.sprintf "%.1f" s.Obs.Metrics.mean_ns);
      ("p50_ns", Printf.sprintf "%.1f" s.Obs.Metrics.p50_ns);
      ("p95_ns", Printf.sprintf "%.1f" s.Obs.Metrics.p95_ns);
      ("p99_ns", Printf.sprintf "%.1f" s.Obs.Metrics.p99_ns);
      ("max_ns", Printf.sprintf "%.1f" s.Obs.Metrics.max_ns);
    ]

(* Atomic publish: a crash (or Ctrl-C) mid-run never leaves a torn
   BENCH_*.json for the figure scripts to trip over. *)
let write_bench_json ~path json = Store.Io.atomic_write_text ~path (json ^ "\n")

let schemes_for_latency =
  [
    ("plaintext", None);
    ("fixed-100", Some (Wre.Scheme.Fixed 100));
    ("fixed-1000", Some (Wre.Scheme.Fixed 1000));
    ("poisson-100", Some (Wre.Scheme.Poisson 100.0));
    ("poisson-1000", Some (Wre.Scheme.Poisson 1000.0));
    ("poisson-10000", Some (Wre.Scheme.Poisson 10_000.0));
  ]

let heading title =
  Printf.printf "\n=== %s ===\n%!" title
