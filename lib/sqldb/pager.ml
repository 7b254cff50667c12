(* lint: guarded-by Domain.DLS (each domain's counts and installed cache
   live in its own DLS record; nothing here is shared between domains
   except the atomic rel allocator and the Obs counters) *)
type config = {
  page_size : int;
  io_miss_ns : float;
  cpu_row_ns : float;
  cpu_probe_ns : float;
  cpu_transfer_ns_per_byte : float;
}

let cost_model =
  {
    page_size = 8192;
    io_miss_ns = 200_000.0;
    cpu_row_ns = 150.0;
    cpu_probe_ns = 5_000.0;
    cpu_transfer_ns_per_byte = 1.0;
  }

(* Process-wide totals. All updates are counter bumps — nothing here
   allocates per row. *)
let m_hits = Obs.Metrics.counter "pager.page_hits_total"
let m_misses = Obs.Metrics.counter "pager.page_misses_total"
let m_rows = Obs.Metrics.counter "pager.rows_examined_total"
let m_probes = Obs.Metrics.counter "pager.index_probes_total"
let m_bytes = Obs.Metrics.counter "pager.bytes_transferred_total"

(* Rel ids are unique process-wide, so one cache can hold the pages of
   any number of tables and databases without collisions. *)
type rel = int

let next_rel = Atomic.make 0
let make_rel () = Atomic.fetch_and_add next_rel 1

type cache = (rel * int, unit) Hashtbl.t

let cache () : cache = Hashtbl.create 4096
let clear (c : cache) = Hashtbl.reset c

type stats = {
  hits : int;
  misses : int;
  rows_examined : int;
  probes : int;
  bytes : int;
  sim_ns : float;
}

(* The one place the cost model is applied. Every term is an integer
   number of nanoseconds, so the sum is exact below 2^53 ns. *)
let make_stats ~hits ~misses ~rows_examined ~probes ~bytes =
  let m = cost_model in
  {
    hits;
    misses;
    rows_examined;
    probes;
    bytes;
    sim_ns =
      (float_of_int misses *. m.io_miss_ns)
      +. (float_of_int rows_examined *. m.cpu_row_ns)
      +. (float_of_int probes *. m.cpu_probe_ns)
      +. (float_of_int bytes *. m.cpu_transfer_ns_per_byte);
  }

(* Per-domain cumulative counts, plus the cache installed on the
   domain, if any. A query runs on the domain that calls it and
   measures its own cost as a before/after delta of the counts made
   *on its domain*, so per-query stats stay exact even when unrelated
   queries run concurrently on other domains. *)
type local = {
  mutable l_hits : int;
  mutable l_misses : int;
  mutable l_rows : int;
  mutable l_probes : int;
  mutable l_bytes : int;
  mutable l_cache : cache option;
}

let local_key =
  Domain.DLS.new_key (fun () ->
      { l_hits = 0; l_misses = 0; l_rows = 0; l_probes = 0; l_bytes = 0; l_cache = None })

let local_stats () =
  let l = Domain.DLS.get local_key in
  make_stats ~hits:l.l_hits ~misses:l.l_misses ~rows_examined:l.l_rows ~probes:l.l_probes
    ~bytes:l.l_bytes

let with_cache c f =
  let l = Domain.DLS.get local_key in
  let outer = l.l_cache in
  l.l_cache <- Some c;
  Fun.protect ~finally:(fun () -> l.l_cache <- outer) f

let touch rel page =
  let l = Domain.DLS.get local_key in
  let hit =
    match l.l_cache with
    | None -> true
    | Some c ->
        let key = (rel, page) in
        let cached = Hashtbl.mem c key in
        if not cached then Hashtbl.replace c key ();
        cached
  in
  if hit then begin
    l.l_hits <- l.l_hits + 1;
    Obs.Metrics.incr m_hits
  end
  else begin
    l.l_misses <- l.l_misses + 1;
    Obs.Metrics.incr m_misses
  end

let charge_rows n =
  let l = Domain.DLS.get local_key in
  l.l_rows <- l.l_rows + n;
  Obs.Metrics.add m_rows n

let charge_probe () =
  let l = Domain.DLS.get local_key in
  l.l_probes <- l.l_probes + 1;
  Obs.Metrics.incr m_probes

let charge_transfer n =
  let l = Domain.DLS.get local_key in
  l.l_bytes <- l.l_bytes + n;
  Obs.Metrics.add m_bytes n

let sim_ms s = s.sim_ns /. 1e6

let diff_stats a b =
  make_stats ~hits:(b.hits - a.hits) ~misses:(b.misses - a.misses)
    ~rows_examined:(b.rows_examined - a.rows_examined) ~probes:(b.probes - a.probes)
    ~bytes:(b.bytes - a.bytes)

let sum_stats a b =
  make_stats ~hits:(a.hits + b.hits) ~misses:(a.misses + b.misses)
    ~rows_examined:(a.rows_examined + b.rows_examined) ~probes:(a.probes + b.probes)
    ~bytes:(a.bytes + b.bytes)

let zero_stats = make_stats ~hits:0 ~misses:0 ~rows_examined:0 ~probes:0 ~bytes:0
