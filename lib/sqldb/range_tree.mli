(** Server-side encrypted boundary tree (ESEDS-style, Kerschbaum–Tueno).

    The client builds a balanced binary tree over the equi-depth range
    buckets of a column and hands the server only this *pseudonymous
    node table*: every node is a PRF tag, internal nodes point at their
    children by array index, and each leaf carries the bucket search
    tag that the rtag index column stores. The server can expand a
    subtree root to its leaf bucket tags — that is all a range query
    needs — but learns nothing about boundary values or bucket
    identities beyond the co-occurrence structure the traversal itself
    reveals (quantified by {!Attacks.Range_leakage}).

    This module is crypto-free by design: tag derivation lives on the
    client side in [Wre.Range_struct]. The table holds each range
    column's tree ({!Table.set_range_tree}), and the executor expands a
    query's cover roots through {!traverse} before planning. *)

type node = {
  tag : int64;  (** PRF pseudonym of the node (interval identity) *)
  left : int;  (** child index, [-1] for a leaf *)
  right : int;  (** child index, [-1] for a leaf *)
  bucket : int64;  (** leaf: the bucket search tag probed against the rtag index; internal: 0 *)
}

type t

val make : node array -> t
(** Validates and indexes a node table. The array must be in preorder
    (every child index strictly greater than its parent's index and in
    bounds), node tags must be unique, and internal nodes must have
    both children. Raises [Invalid_argument] otherwise, so a [t] can
    always be traversed safely. *)

val node_count : t -> int

val depth : t -> int
(** Longest root-to-leaf path, in nodes ([1] for a single-leaf tree). *)

val leaf_count : t -> int

val mem : t -> tag:int64 -> bool
(** Whether [tag] names a node of the tree. *)

val traverse : t -> root:int64 -> (int64 array * int) option
(** [traverse t ~root] expands the subtree rooted at the node whose tag
    is [root] into its leaf bucket tags, in bucket (left-to-right)
    order, together with the number of nodes visited. [None] when
    [root] names no node — unknown roots are total, not an error, so a
    malformed query cannot crash the server. *)
