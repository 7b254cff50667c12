(** Domain-based worker pool with chunked fan-out.

    A pool created with [~domains:d] owns [d - 1] worker domains; the
    caller of {!parallel_init} participates as the [d]-th, so a
    1-domain pool runs everything on the calling domain with no
    spawning, scheduling, or ordering differences from a plain
    [Array.init].

    The pool fans whole units of work, never the inside of a query:
    the server runs each statement of a read batch as one task, and
    batched ingestion encrypts one chunk of rows per task.

    The pool is safe to share across batches but not reentrant: do not
    call {!parallel_init} from inside a task running on the same pool
    (helpers could then starve behind the outer tasks). Task functions
    must not mutate shared state unless they synchronize themselves —
    the intended use is pure chunk computations whose results the
    caller applies single-threaded afterwards. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains
    ([domains >= 1]; 1 spawns none). *)

val domains : t -> int
(** Total parallelism, including the calling domain. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init t n f] is [Array.init n f] with the [f i] calls
    distributed over the pool. Each index is computed exactly once;
    the result array is in index order regardless of scheduling. If
    any [f i] raises, one such exception is re-raised in the caller —
    with the backtrace captured at the failing chunk, via
    [Printexc.raise_with_backtrace] — after all in-flight tasks drain
    (remaining indexes are skipped, so side effects of [f] must not be
    relied on after a failure). A concurrent {!shutdown} that makes
    internal submission fail is reported the same way: the queued
    helpers drain, then the submission error is raised — never a
    deadlock, and never a task left running past the call. *)

val parallel_iter : t -> int -> (int -> unit) -> unit
(** [parallel_init] for effects only. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. Submitting work after shutdown
    raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
