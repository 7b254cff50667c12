(* lint: guarded-by lock (per-domain read counters live in Domain.DLS) *)
type config = {
  page_size : int;
  io_miss_ns : float;
  cpu_row_ns : float;
  cpu_probe_ns : float;
  cpu_transfer_ns_per_byte : float;
}

let default_config =
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
let m_sim = Obs.Metrics.counter "pager.sim_ns_total"
let g_cached = Obs.Metrics.gauge "pager.cached_pages"

type rel = { id : int; name : string }

(* Instance totals are atomics so that concurrent snapshot readers on
   worker domains keep hit/miss accounting exact; the buffer-pool set
   itself (a hashtable) and rel allocation are guarded by [lock].
   The simulated clock is a float accumulated by CAS on its bit
   pattern — each charge lands exactly once, in some order. *)
type t = {
  cfg : config;
  lock : Mutex.t;
  cache : (int * int, unit) Hashtbl.t;
  mutable next_rel : int;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_rows : int Atomic.t;
  acc_sim_bits : int64 Atomic.t;
}

(* Per-domain cumulative charges, across all pager instances. A query
   measures its own cost as a before/after delta of the charges made
   *on its domain*: with the parallel executor, each fanned-out task
   measures its own domain-local delta and the caller sums them, so
   per-query stats stay exact even when unrelated queries run
   concurrently on other domains. *)
type stats = { hits : int; misses : int; rows_examined : int; sim_ns : float }

type local = {
  mutable l_hits : int;
  mutable l_misses : int;
  mutable l_rows : int;
  mutable l_sim : float;
}

let local_key =
  Domain.DLS.new_key (fun () -> { l_hits = 0; l_misses = 0; l_rows = 0; l_sim = 0.0 })

let local_stats () =
  let l = Domain.DLS.get local_key in
  { hits = l.l_hits; misses = l.l_misses; rows_examined = l.l_rows; sim_ns = l.l_sim }

let add_sim t ns =
  let l = Domain.DLS.get local_key in
  l.l_sim <- l.l_sim +. ns;
  let rec cas () =
    let old = Atomic.get t.acc_sim_bits in
    let next = Int64.bits_of_float (Int64.float_of_bits old +. ns) in
    if not (Atomic.compare_and_set t.acc_sim_bits old next) then cas ()
  in
  cas ();
  Obs.Metrics.add m_sim (int_of_float ns)

let create ?(config = default_config) () =
  {
    cfg = config;
    lock = Mutex.create ();
    cache = Hashtbl.create 4096;
    next_rel = 0;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_rows = Atomic.make 0;
    acc_sim_bits = Atomic.make (Int64.bits_of_float 0.0);
  }

let config t = t.cfg

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
    add_sim t t.cfg.io_miss_ns;
    Obs.Metrics.incr m_misses;
    Obs.Metrics.set_gauge g_cached cached
  end

let charge_rows t n =
  let l = Domain.DLS.get local_key in
  l.l_rows <- l.l_rows + n;
  ignore (Atomic.fetch_and_add t.n_rows n);
  add_sim t (float_of_int n *. t.cfg.cpu_row_ns);
  Obs.Metrics.add m_rows n

let charge_probe t =
  add_sim t t.cfg.cpu_probe_ns;
  Obs.Metrics.incr m_probes

let charge_transfer t n =
  add_sim t (float_of_int n *. t.cfg.cpu_transfer_ns_per_byte);
  Obs.Metrics.add m_bytes n

let drop_caches t =
  Mutex.lock t.lock;
  Hashtbl.reset t.cache;
  Mutex.unlock t.lock;
  Obs.Metrics.set_gauge g_cached 0

let stats t =
  {
    hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    rows_examined = Atomic.get t.n_rows;
    sim_ns = Int64.float_of_bits (Atomic.get t.acc_sim_bits);
  }

let reset_stats t =
  Atomic.set t.n_hits 0;
  Atomic.set t.n_misses 0;
  Atomic.set t.n_rows 0;
  Atomic.set t.acc_sim_bits (Int64.bits_of_float 0.0)

let sim_ms s = s.sim_ns /. 1e6

let diff_stats a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    rows_examined = b.rows_examined - a.rows_examined;
    sim_ns = b.sim_ns -. a.sim_ns;
  }

let sum_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    rows_examined = a.rows_examined + b.rows_examined;
    sim_ns = a.sim_ns +. b.sim_ns;
  }

let zero_stats = { hits = 0; misses = 0; rows_examined = 0; sim_ns = 0.0 }

let map_measured ?pool items f =
  let self = (Domain.self () :> int) in
  let outcomes =
    Stdx.Task_pool.map_array ?pool items (fun x ->
        let before = local_stats () in
        let r = f x in
        (r, (Domain.self () :> int), diff_stats before (local_stats ())))
  in
  ( Array.map (fun (r, _, _) -> r) outcomes,
    Array.fold_left
      (fun acc (_, dom, d) -> if dom <> self then sum_stats acc d else acc)
      zero_stats outcomes )
