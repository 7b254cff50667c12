(** Non-unique B-tree index — the one index access method.

    WRE search tags sit in an ordinary 64-bit integer column served by
    the DBMS's built-in index, a PostgreSQL B-tree in the paper's
    evaluation (§VI-A); key and range-tag columns use the same index.

    Logically a sorted multimap from key values to row ids, kept as a
    persistent {!Postings} tree. Physically it models a PostgreSQL
    B-tree for the pager: entries are packed into 8 KiB leaf pages in
    key order (so equal keys are contiguous, and an equality lookup
    touches [height] internal pages plus [⌈matches / entries_per_leaf⌉]
    consecutive leaves), and internal fanout determines the height. An
    entry's leaf is its rank in key order, which the postings tree
    answers in O(log n). Sizes reported by {!size_bytes} feed the
    Table I ciphertext-expansion experiment. *)

type t

val create : unit -> t
val insert : t -> Value.t -> int -> unit

val remove : t -> Value.t -> int -> unit
(** Drop every entry mapping [key] to [id] (no-op when absent) and
    shrink the entry/key-byte accounting accordingly — the vacuum
    path. *)

val snapshot : t -> t
(** O(1): a handle on the current postings root, for read views.
    Inserts and removes copy the path to the key they change, so the
    snapshot never sees them; lookups on it are pure reads plus pager
    charges — safe from any domain. Shares the live index's pager rel,
    so a cache sees one set of pages for both. *)

val lookup : t -> Value.t -> int array
(** Row ids for an equality match, in insertion order; touches index
    pages via the pager. *)

val lookup_many : t -> Value.t list -> int array
(** OR-of-equalities: one probe per key, in list order, then the
    sorted deduplicated union — the plan WRE search queries compile
    to. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array
(** Inclusive range scan over keys. *)

val entry_count : t -> int
val distinct_keys : t -> int
val height : t -> int
val leaf_pages : t -> int

val size_bytes : t -> int
(** Leaf plus internal pages × page size. *)
