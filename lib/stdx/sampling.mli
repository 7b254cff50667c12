(** Sampling from discrete distributions.

    The WRE encryption path samples a salt for every record it encrypts,
    so the per-sample cost matters at 10M-record scale. {!Alias} gives
    O(1) samples after O(n) preprocessing (Walker/Vose alias method);
    it is the one weighted sampler, behind every salt and every
    plaintext draw. *)

val shuffle : Prng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle (uniform over permutations). *)

val choose : Prng.t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

module Alias : sig
  type t

  val create : float array -> t
  (** Preprocess weights (non-negative, positive sum) into alias tables.
      O(n). *)

  val sample : t -> Prng.t -> int
  (** O(1) draw with probability proportional to the original weights. *)

  val size : t -> int
end
