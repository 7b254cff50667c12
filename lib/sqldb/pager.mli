(** Page, row, probe and transfer counts, and the cold/warm cache model.

    The paper's query-latency figures (Figs. 4–7) are dominated by
    storage behaviour: a cold run pays a random read for every page not
    in the OS/Postgres caches, a warm run pays almost none. The engine
    here keeps all data in memory, so it counts what a query does, as
    integers: page touches, rows examined, index probes and bytes
    transferred. The counts live on the calling domain; nothing is
    shared between domains except process-wide [pager.*_total]
    counters, so a touch takes no lock. The modeled latency [sim_ns] is
    derived from the counts, through one fixed cost model, whenever
    stats are read. Real wall-clock time of the executor is measured
    separately; the {e modeled} clock is what reproduces the paper's
    cold/warm shapes on a machine with no spinning disks.

    Hits and misses. Outside a cache every touch counts as a hit: the
    engine holds every page in memory, the regime a deployed server
    runs in once warm. The paper's cold/warm protocol (§VI-A) is
    reproduced only by the modeled experiments, which install a
    {!cache} on their own domain with {!with_cache}: inside it, a touch
    of a [(relation, page)] pair the cache has not seen is a miss and
    fills it. {!clear} before each query gives the cold protocol;
    leaving the cache alone gives the warm one. *)

type config = {
  page_size : int;  (** bytes per page; 8192 like PostgreSQL *)
  io_miss_ns : float;  (** modeled latency per page miss *)
  cpu_row_ns : float;  (** modeled CPU per row examined *)
  cpu_probe_ns : float;  (** modeled CPU per index probe (one per tag in an IN-list) *)
  cpu_transfer_ns_per_byte : float;  (** network/serialization cost for returned bytes *)
}

val cost_model : config
(** The cost model, one constant: 8 KiB pages, 200 µs per miss
    (10k-RPM array random read), 150 ns per row, 5 µs per index probe,
    1 ns per returned byte (≈1 Gbps wire, paper §VI-A). *)

type rel
(** A relation (heap or index) with its own page number space. *)

val make_rel : unit -> rel
(** A fresh relation, distinct from every other in the process. *)

val touch : rel -> int -> unit
(** Access one page: a hit, unless the calling domain has a cache
    installed that does not hold the page yet (a miss, which fills
    it). *)

val charge_rows : int -> unit
(** Count [n] rows examined. *)

val charge_probe : unit -> unit
(** Count one index descent — what makes a 1,000-tag WRE query slower
    than a single-tag plaintext query even when every page is cached
    (the warm-cache ordering of Figs. 6–7). *)

val charge_transfer : int -> unit
(** Count [n] bytes returned over the wire. *)

(** {1 The cold/warm cache} *)

type cache
(** A set of cached [(relation, page)] pairs: the buffer pool of the
    paper's cold/warm protocol. Not thread-safe: install a cache on one
    domain at a time. *)

val cache : unit -> cache
(** An empty cache. *)

val clear : cache -> unit
(** Empty the cache (the paper's
    [echo 3 > /proc/sys/vm/drop_caches] plus Postgres restart). *)

val with_cache : cache -> (unit -> 'a) -> 'a
(** [with_cache c f] runs [f] with [c] installed on the calling domain:
    every page it touches there is looked up in, and added to, [c].
    A domain has one cache at a time; a nested call shadows the outer
    cache until it returns. The previous state is restored when [f]
    returns or raises. Touches on other domains never see [c]. *)

(** {1 Stats} *)

type stats = {
  hits : int;
  misses : int;
  rows_examined : int;
  probes : int;
  bytes : int;  (** bytes transferred *)
  sim_ns : float;
      (** modeled latency, derived from the counts:
          [misses·io_miss_ns + rows_examined·cpu_row_ns +
          probes·cpu_probe_ns + bytes·cpu_transfer_ns_per_byte] *)
}

val local_stats : unit -> stats
(** Cumulative counts made by the *calling domain*. A query runs on the
    domain that calls it, so its cost is a before/after delta of this,
    and queries running concurrently on other domains never pollute
    it. *)

val diff_stats : stats -> stats -> stats
(** [diff_stats before after] is the component-wise delta. *)

val sum_stats : stats -> stats -> stats
val zero_stats : stats

val sim_ms : stats -> float
