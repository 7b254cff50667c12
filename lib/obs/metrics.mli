(** Process-wide metrics registry: counters, gauges and log-scale
    latency histograms.

    The query path of the paper's evaluation (§VII, SPARTA) is measured
    in per-phase latency and row counts; this module is the substrate
    those measurements flow into. Handles are registered once by name
    (idempotently — asking for the same name twice returns the same
    instrument) and updated lock-free with [Atomic] operations, so
    instruments are safe to bump from [Stdx.Task_pool] worker domains.
    Hot-path updates allocate nothing: counters and gauges are plain
    atomic integers, histogram observation is one bucket increment.

    Determinism: instruments never consume PRNG state (wre-lint R3);
    the only clock they touch is {!Stdx.Clock} via {!time}. *)

type counter
(** Monotonically increasing atomic integer. *)

type gauge
(** Last-write-wins atomic integer (e.g. active server sessions). *)

type histogram
(** Fixed-bucket log-scale histogram of nanosecond latencies: 4 buckets
    per decade over \[1 ns, 10^13 ns), lock-free increments, geometric
    interpolation for percentile extraction (relative error bounded by
    the bucket ratio 10^0.25 ≈ 1.78×). *)

val counter : string -> counter
(** Register (or fetch the existing) counter under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** [observe h ns] records one latency sample, in nanoseconds.
    Negative and sub-nanosecond samples land in the lowest bucket. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run a thunk and [observe] its wall-clock duration
    ({!Stdx.Clock.now_ns} deltas). Exceptions propagate unrecorded. *)

type histogram_summary = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;  (** exact maximum observed, not bucket-rounded *)
}

val summarize : histogram -> histogram_summary
(** All-zero summary when the histogram is empty. *)

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in \[0,100\]; 0.0 when empty. *)

val counters : unit -> (string * int) list
(** Registered counters with current values, sorted by name. *)

val gauges : unit -> (string * int) list
val histograms : unit -> (string * histogram_summary) list

val reset_all : unit -> unit
(** Zero every registered instrument (registrations survive). Intended
    for tests and bench runs that need a clean delta. *)

val render : unit -> string
(** Human-readable dump of the whole registry ([wre_cli stats]). *)
