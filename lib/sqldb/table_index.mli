(** Uniform view over the two index access methods. *)

type kind = Btree | Hash

type t = B of Btree_index.t | H of Hash_index.t

val create : kind -> Pager.t -> name:string -> t
val kind : t -> kind
val name : t -> string
val insert : t -> Value.t -> int -> unit

val remove : t -> Value.t -> int -> unit
(** Drop the entries mapping a key to a row id (vacuum path). *)

val snapshot : t -> t
(** O(1) handle on the index as of now, for read views: later inserts
    and removes never reach it. *)

val lookup : t -> Value.t -> int array

val lookup_many : t -> Value.t list -> int array
(** OR-of-equalities: one probe per key, in list order, then the
    sorted deduplicated union — the plan WRE search queries compile
    to. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array option
(** [None] for hash indexes — they cannot serve range scans, and the
    planner falls back to a sequential scan. *)

val entry_count : t -> int
val size_bytes : t -> int
