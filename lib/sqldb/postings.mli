(** Persistent ordered multimap from index keys to row ids — the
    postings a B-tree index ({!Table_index}) keeps.

    A weight-balanced binary tree ordered by {!Value.compare}; every
    node carries its subtree's key and entry counts, so the rank of an
    entry (how many entries sort before it) is an O(log n) descent.
    Updates copy the path to the changed key and share everything
    else: a reader holding an older root sees exactly the postings of
    that moment, forever, at no copying cost. *)

type t

val empty : t

val add : t -> Value.t -> int -> t
(** Append one (key, id) entry. Ids under one key keep insertion order. *)

val remove : t -> Value.t -> int -> t * int
(** Drop every entry mapping the key to the id; returns the new root
    and how many entries went. The root is returned physically
    unchanged when nothing matched. *)

val keys : t -> int
(** Distinct keys. *)

val entries : t -> int

val find : t -> Value.t -> int * int array
(** [(rank, ids)]: the number of entries whose key sorts strictly
    before [key], and the ids under [key] in insertion order ([[||]]
    when absent). *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int * int array
(** Inclusive key range: the rank of its first entry and its ids in
    key order (insertion order within a key). *)

val union_ids : int array list -> int array
(** Sorted, deduplicated union of id arrays — the one sort + dedup the
    index, executor and join paths share. *)
