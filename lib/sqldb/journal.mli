(** Mutation journal hooks: the seam a durable storage engine plugs
    into.

    Every state change of a {!Table} or {!Database} — DDL, inserts,
    tombstones, vacuums — is described by one {!mutation} value and
    handed to the installed hook {e after} the in-memory change has
    fully applied. A write-ahead log subscribes here to make the change
    durable; replaying the same mutations against a fresh database in
    order reproduces the table byte-identically (same row ids, same
    heap-page assignment, same index contents).

    Hooks see {e physical} rows: for an encrypted table that means the
    ciphertext/tag row, so the journal never handles plaintext and
    replay needs no key material. *)

type mutation =
  | Created_table of { name : string; schema : Schema.t }
  | Created_index of { table : string; column : string }
      (** a B-tree ({!Table_index}), the one access method *)
  | Inserted of { table : string; row : Value.t array }
  | Inserted_batch of { table : string; rows : Value.t array array }
  | Deleted of { table : string; id : int }
      (** Emitted only for a live row actually tombstoned. *)
  | Vacuumed of { table : string }
      (** Emitted only when the vacuum reclaimed something. *)

type hook = mutation -> unit
