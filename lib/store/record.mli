(** Logical WAL record payloads.

    One {!op} per {!Sqldb.Journal.mutation}, plus {!Attach_wre}
    describing the client-side state of an encrypted table so recovery
    can rebuild its {!Wre.Encrypted_db.t} without replaying the
    plaintext profile. A statement's write is one [Apply] record: the
    ids it tombstoned and the rows it appended, {e physical} (already
    encrypted for WRE tables), so replay applies them without any key
    material. Its optional [prng] field carries the exported
    weak-randomness state {e after} the statement, captured when it
    inserted rows into an encrypted table, so a recovered database
    continues the exact salt/nonce stream. The per-row records of older
    builds (tags 3–5: one insert, one insert batch, one tombstone)
    still decode, each as the one-statement [Apply] it was; nothing
    writes them.

    Everything in a {!wre_config} — including the exported master-key
    halves — lives in the store directory, which is the {e trusted}
    client-side proxy state (DESIGN.md §5e); the adversary of the
    paper's model sees only the encrypted table contents. *)

type wre_config = {
  table_name : string;
  kind : Wre.Scheme.kind;
  fallback : Wre.Column_enc.fallback;
  tag_algo : Crypto.Prf.algo;
      (** followed on disk by an index kind byte ({!Codec.put_index_kind}) *)
  k0 : string;
  k1 : string;
  plain_schema : Sqldb.Schema.t;
  key_column : string;
  encrypted_columns : string list;
  dists : (string * (string * int) list) list;
      (** per searchable column: the profiled distribution as counts *)
  ranges : (string * int64 array) list;
      (** per range column: checkpointed bucket boundaries *)
  prng : string;  (** exported {!Stdx.Prng} state at capture time *)
}

type op =
  | Create_table of { name : string; schema : Sqldb.Schema.t }
  | Create_index of { table : string; column : string }
      (** always a B-tree; the payload keeps the kind byte
          ({!Codec.put_index_kind}) *)
  | Apply of {
      table : string;
      deleted : int array;
      rows : Sqldb.Value.t array array;
      prng : string option;
    }  (** one statement ({!Sqldb.Table.apply}), tag 8 *)
  | Vacuum of { table : string }
  | Attach_wre of wre_config

val encode : op -> string
val decode : string -> op
(** Raises {!Codec.Corrupt} on malformed input. *)

val put_wre_config : Buffer.t -> wre_config -> unit
val get_wre_config : Codec.cursor -> wre_config
(** Shared with the snapshot writer, which embeds the same structure. *)
