(** WHERE-clause predicates.

    The fragment the WRE client emits: equality, OR-of-equalities over
    one column ([In] — the compiled form of a multi-tag search query,
    paper Fig. 1's [T_t = F(s_1‖m) ∨ …]), plus conjunction, negation
    and ranges for general use. *)

type t =
  | True
  | Eq of string * Value.t
  | In of string * Value.t list
  | Range of string * Value.t option * Value.t option  (** inclusive bounds *)
  | And of t list
  | Or of t list
  | Not of t

val compile : Schema.t -> t -> (Value.t array -> bool)
(** Resolve column names once; the returned closure evaluates rows.
    TEXT equality — an [Eq] on a TEXT value, and a TEXT cell against
    every TEXT value of an [In] — runs in constant time
    ({!Stdx.Bytes_util.ct_equal}): the proxy's residual compares
    decrypted secrets. Raises [Not_found] for unknown columns. *)

val columns : t -> string list
(** Column names referenced, without duplicates. *)

val pp : Format.formatter -> t -> unit
(** SQL-ish rendering for logs and test output. *)
