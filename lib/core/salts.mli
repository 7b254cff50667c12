(** Per-plaintext salt sets: the getSalts subroutine of paper Fig. 1.

    A salt set is the list of salt identifiers a plaintext may be
    encrypted under, together with the probability of choosing each
    ([P_S]). For a fixed key and plaintext the set is deterministic —
    both the encryptor and the search-query builder recompute it — so
    all pseudo-randomness is drawn from an HMAC-DRBG seeded by the
    caller (derived from master key k1).

    This module implements the per-message allocators (Det, Fixed,
    Proportional, Poisson/Algorithm 1); the global Bucketized allocator
    lives in {!Bucket_layout}. *)

type t = private {
  salts : int array;  (** salt identifiers, distinct *)
  weights : float array;  (** [P_S]: same length, sums to 1 *)
}
(** Draws go through the alias table {!Column_enc} caches beside each
    set ({!Stdx.Sampling.Alias}). *)

val make : salts:int array -> weights:float array -> t
(** Assemble a salt set without checking the invariants ({!validate}
    does that). *)

val det : t
(** The single salt 0 with probability 1. *)

val fixed : n:int -> t
(** [n] salts, uniform. *)

val proportional : total_tags:int -> prob:float -> t
(** ⌈/round⌉ [prob · total_tags] salts (at least 1), uniform — the
    frequency-smoothing allocation of §V-B, with its integer-rounding
    aliasing problem intact (exercised by the aliasing ablation). *)

val poisson : seed:string -> lambda:float -> prob:float -> t
(** Algorithm 1: interarrivals of a rate-λ Poisson process on
    [\[0, prob\]], normalized to weights. Deterministic in [seed]. *)

val validate : t -> (unit, string) result
(** Invariant check used by tests and fuzzing: distinct salts, positive
    weights summing to 1 (±1e-9). *)
