(** Database catalog: the deployable surface.

    A [Database.t] stands in for the unmodified cloud DBMS of the
    paper: the WRE client only ever creates tables, inserts rows,
    builds standard indexes and runs SELECT queries against it —
    no custom server-side machinery, which is the whole point of
    "easily deployable" encryption. *)

type t

val create : unit -> t

val create_table : t -> name:string -> schema:Schema.t -> Table.t
(** Raises [Invalid_argument] if the name is taken. *)

val table : t -> string -> Table.t
(** Raises [Not_found]. *)

val table_opt : t -> string -> Table.t option
val tables : t -> Table.t list

val freeze_pair : t -> string -> string -> (Read_view.t * Read_view.t) option
(** Resolve two table names and freeze both in one epoch-consistent
    step: the views are taken back to back under the caller's
    single-writer discipline, so no mutation interleaves between them.
    [None] if either name is unknown. The join path's snapshot
    primitive. *)

val insert : t -> table:string -> Value.t array -> int

val total_bytes : t -> int
(** All heaps + all indexes: the "DB + Indexes Size" of Table I. *)

val heap_bytes : t -> int
(** All heaps only: the "DB Size" column of Table I. *)

(* Durability hooks. *)

val set_journal : t -> Journal.hook option -> unit
(** Install (or clear) the mutation hook on the database and every
    current table; tables created later inherit it. Table creation
    itself is reported as {!Journal.Created_table}. *)

val restore_table : t -> Table.snapshot -> Table.t
(** Register a table rebuilt from a checkpoint snapshot. Emits no
    journal events for the restore; the table then journals normally.
    Raises [Invalid_argument] if the name is taken. *)
