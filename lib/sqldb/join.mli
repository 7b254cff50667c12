(** Two-table equi-join plans over frozen {!Read_view}s.

    Two execution modes share one result contract:

    - [Equi] is the plaintext reference: a classic hash join on value
      equality of the two ON columns (build side = the smaller view,
      probe side scanned once). NULL never matches NULL, per SQL.

    - [Buckets] is the encrypted-search plan: the client has already
      grouped the search keys by plaintext — for WRE, bucket [i] holds
      every salted tag either side's rows may carry for the [i]-th
      joinable plaintext — and the server answers each bucket from the
      ON-column indexes (per-tag postings from both views) and emits
      the cross product of the two posting sets. Because bucketized
      schemes share tags across plaintexts, buckets may overlap; the
      final pair list is sorted and deduplicated, so multiplicities
      are exact per (left row, right row) pair. Candidate pairs are a
      superset of the true join — the caller re-verifies on plaintext
      after decryption.

    Buckets are probed in bucket order on the calling domain, and the
    returned [pairs] are the sorted deduplicated candidate set. Per-call
    [stats] follow {!Executor.run_view}'s accounting: the calling
    domain's pager delta over the join. *)

type spec =
  | Equi
  | Buckets of (Value.t list * Value.t list) array
      (** Per bucket: (keys to probe in the left view's ON column,
          keys to probe in the right view's ON column). *)

type plan = {
  build_left : bool;  (** the smaller (build) side at execution time *)
  buckets : int;  (** 0 for [Equi] *)
}

type result = {
  pairs : (int * int) array;
      (** Candidate (left row id, right row id) pairs, sorted and
          deduplicated. *)
  bucket_pairs : int array;
      (** Candidate pairs emitted per bucket, in bucket order (what a
          server-side observer sees of the join-degree distribution;
          empty for [Equi]). *)
  plan : plan;
  wall_ns : float;
  stats : Pager.stats;
}

val run :
  left:Read_view.t ->
  right:Read_view.t ->
  on_left:string ->
  on_right:string ->
  spec ->
  result
(** Raises [Not_found] if an ON column is missing from its view's
    schema. Feeds the [join.*] metrics: [join.queries_total],
    [join.buckets_total], [join.pairs_candidate_total] and the
    [join.wall_ns] histogram. *)
