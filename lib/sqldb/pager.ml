(* lint: guarded-by lock (per-domain read counters live in Domain.DLS) *)
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

(* Process-wide totals across every pager instance; the per-instance
   atomic counters below stay the source of whole-pager stats. All
   updates are counter bumps — nothing here allocates per row. *)
let m_hits = Obs.Metrics.counter "pager.page_hits_total"
let m_misses = Obs.Metrics.counter "pager.page_misses_total"
let m_rows = Obs.Metrics.counter "pager.rows_examined_total"
let m_probes = Obs.Metrics.counter "pager.index_probes_total"
let m_bytes = Obs.Metrics.counter "pager.bytes_transferred_total"
let g_cached = Obs.Metrics.gauge "pager.cached_pages"

type rel = { id : int; name : string }

(* Instance totals are atomics so that concurrent snapshot readers on
   worker domains keep the accounting exact; the buffer-pool set
   itself (a hashtable) and rel allocation are guarded by [lock].
   Only events are counted — the modeled clock is derived from the
   counts when stats are read. *)
type t = {
  lock : Mutex.t;
  cache : (int * int, unit) Hashtbl.t;
  mutable next_rel : int;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_rows : int Atomic.t;
  n_probes : int Atomic.t;
  n_bytes : int Atomic.t;
}

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

(* Per-domain cumulative counts, across all pager instances. A query
   runs on the domain that calls it and measures its own cost as a
   before/after delta of the counts made *on its domain*, so per-query
   stats stay exact even when unrelated queries run concurrently on
   other domains. *)
type local = {
  mutable l_hits : int;
  mutable l_misses : int;
  mutable l_rows : int;
  mutable l_probes : int;
  mutable l_bytes : int;
}

let local_key =
  Domain.DLS.new_key (fun () -> { l_hits = 0; l_misses = 0; l_rows = 0; l_probes = 0; l_bytes = 0 })

let local_stats () =
  let l = Domain.DLS.get local_key in
  make_stats ~hits:l.l_hits ~misses:l.l_misses ~rows_examined:l.l_rows ~probes:l.l_probes
    ~bytes:l.l_bytes

let create () =
  {
    lock = Mutex.create ();
    cache = Hashtbl.create 4096;
    next_rel = 0;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_rows = Atomic.make 0;
    n_probes = Atomic.make 0;
    n_bytes = Atomic.make 0;
  }

let make_rel t ~name =
  Mutex.lock t.lock;
  let id = t.next_rel in
  t.next_rel <- id + 1;
  Mutex.unlock t.lock;
  { id; name }

let rel_name r = r.name

let touch t rel page =
  let key = (rel.id, page) in
  Mutex.lock t.lock;
  let hit = Hashtbl.mem t.cache key in
  if not hit then Hashtbl.replace t.cache key ();
  let cached = Hashtbl.length t.cache in
  Mutex.unlock t.lock;
  let l = Domain.DLS.get local_key in
  if hit then begin
    l.l_hits <- l.l_hits + 1;
    Atomic.incr t.n_hits;
    Obs.Metrics.incr m_hits
  end
  else begin
    l.l_misses <- l.l_misses + 1;
    Atomic.incr t.n_misses;
    Obs.Metrics.incr m_misses;
    Obs.Metrics.set_gauge g_cached cached
  end

let charge_rows t n =
  let l = Domain.DLS.get local_key in
  l.l_rows <- l.l_rows + n;
  ignore (Atomic.fetch_and_add t.n_rows n);
  Obs.Metrics.add m_rows n

let charge_probe t =
  let l = Domain.DLS.get local_key in
  l.l_probes <- l.l_probes + 1;
  Atomic.incr t.n_probes;
  Obs.Metrics.incr m_probes

let charge_transfer t n =
  let l = Domain.DLS.get local_key in
  l.l_bytes <- l.l_bytes + n;
  ignore (Atomic.fetch_and_add t.n_bytes n);
  Obs.Metrics.add m_bytes n

let drop_caches t =
  Mutex.lock t.lock;
  Hashtbl.reset t.cache;
  Mutex.unlock t.lock;
  Obs.Metrics.set_gauge g_cached 0

let stats t =
  make_stats ~hits:(Atomic.get t.n_hits) ~misses:(Atomic.get t.n_misses)
    ~rows_examined:(Atomic.get t.n_rows) ~probes:(Atomic.get t.n_probes)
    ~bytes:(Atomic.get t.n_bytes)

let reset_stats t =
  List.iter (fun a -> Atomic.set a 0) [ t.n_hits; t.n_misses; t.n_rows; t.n_probes; t.n_bytes ]

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
