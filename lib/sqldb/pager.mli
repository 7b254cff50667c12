(** Buffer-pool and I/O cost model.

    The paper's query-latency figures (Figs. 4–7) are dominated by
    storage behaviour: a cold run pays a random read for every page not
    in the OS/Postgres caches, a warm run pays almost none. The engine
    here keeps all data in memory, so it models that axis explicitly: a
    set of cached [(relation, page)] pairs, plus integer counts of page
    hits and misses, rows examined, index probes and bytes transferred.
    The pager keeps no clock: the modeled latency [sim_ns] is derived
    from the counts, through one fixed cost model, whenever stats are
    read. Real wall-clock time of the executor is measured separately;
    the {e modeled} clock is what reproduces the paper's cold/warm
    shapes on a machine with no spinning disks.

    Benchmarks reproduce the paper's two scenarios by calling
    {!drop_caches} before each query (cold) or leaving the cache alone
    (warm) — exactly the protocol of §VI-A. *)

type t

type config = {
  page_size : int;  (** bytes per page; 8192 like PostgreSQL *)
  io_miss_ns : float;  (** modeled latency per page miss *)
  cpu_row_ns : float;  (** modeled CPU per row examined *)
  cpu_probe_ns : float;  (** modeled CPU per index probe (one per tag in an IN-list) *)
  cpu_transfer_ns_per_byte : float;  (** network/serialization cost for returned bytes *)
}

val cost_model : config
(** The cost model, one constant for every pager: 8 KiB pages, 200 µs
    per miss (10k-RPM array random read), 150 ns per row, 5 µs per
    index probe, 1 ns per returned byte (≈1 Gbps wire, paper §VI-A). *)

val create : unit -> t

type rel
(** A relation (heap or index) with its own page number space. *)

val make_rel : t -> name:string -> rel
val rel_name : rel -> string

val touch : t -> rel -> int -> unit
(** Access one page: cache hit or miss-and-fill. *)

val charge_rows : t -> int -> unit
(** Count [n] rows examined. *)

val charge_probe : t -> unit
(** Count one index descent — what makes a 1,000-tag WRE query slower
    than a single-tag plaintext query even when every page is cached
    (the warm-cache ordering of Figs. 6–7). *)

val charge_transfer : t -> int -> unit
(** Count [n] bytes returned over the wire. *)

val drop_caches : t -> unit
(** Empty the buffer pool (the paper's
    [echo 3 > /proc/sys/vm/drop_caches] plus Postgres restart). *)

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

val stats : t -> stats
(** Whole-instance totals. Counters are atomic, so the totals stay
    exact under concurrent readers: hits + misses always equals the
    number of [touch] calls made so far. *)

val reset_stats : t -> unit
(** Zero all five counts without touching the cache contents. *)

val local_stats : unit -> stats
(** Cumulative counts made by the *calling domain*, across all pager
    instances. A query runs on the domain that calls it, so its cost is
    a before/after delta of this, and queries running concurrently on
    other domains never pollute it. *)

val diff_stats : stats -> stats -> stats
(** [diff_stats before after] is the component-wise delta. *)

val sum_stats : stats -> stats -> stats
val zero_stats : stats

val sim_ms : stats -> float
