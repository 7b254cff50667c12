(** Non-unique hash index (PostgreSQL [USING hash] model).

    WRE search tags are uniformly random 64-bit integers queried only
    by equality — precisely the workload hash indexes exist for: O(1)
    bucket-page touches per probe regardless of table size, and index
    entries that store only the key's hash (fixed 8 bytes + line
    pointer) rather than the key itself. The [btree-vs-hash] ablation
    in the bench harness compares the two on tag lookups.

    Physical model: directory of bucket pages sized for ~75% fill;
    a lookup hashes the key, touches its bucket page (plus chained
    overflow pages when a bucket outgrows one page), then the executor
    fetches heap rows as usual. Logically the postings are the same
    persistent {!Postings} tree the B-tree keeps. *)

type t

val create : Pager.t -> name:string -> t
val name : t -> string
val insert : t -> Value.t -> int -> unit

val remove : t -> Value.t -> int -> unit
(** Drop every entry mapping [key] to [id] (no-op when absent), so
    entry counts and the derived bucket-page/byte accounting shrink
    back to the live rows — the vacuum path. *)

val snapshot : t -> t
(** O(1) handle on the current postings root (see {!Btree_index.snapshot}). *)

val lookup : t -> Value.t -> int array
(** Row ids for an equality match; touches bucket (+overflow) pages. *)

val entry_count : t -> int
val distinct_keys : t -> int
val bucket_pages : t -> int
val size_bytes : t -> int
