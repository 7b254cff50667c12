(** Growable arrays.

    OCaml 5.1 has no [Dynarray] in the standard library; this is the
    minimal growable-array abstraction used by the storage engine and the
    workload generators. Amortized O(1) [push]. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array

val backing : 'a t -> 'a array * int
(** The current backing array and logical length, without copying. For
    zero-copy snapshot sharing (e.g. [Table.freeze]); callers must treat
    the array as read-only and never index at or beyond the returned
    length. A push that outgrows the capacity reallocates, leaving the
    returned array behind with the first [len] slots as they were; {!set}
    writes through to the returned array while the vector has not
    reallocated since. [Table]'s per-slot delete epochs rely on both:
    a tombstone is a [set] that the views sharing the backing do see,
    at an epoch above theirs (see [Read_view]). *)

val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
val of_list : 'a list -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
