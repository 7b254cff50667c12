(** A small SQL front-end for the engine.

    Covers the fragment the paper's evaluation exercises (and that the
    WRE proxy must rewrite): single-table SELECT with equality / IN /
    BETWEEN predicates combined with AND/OR/NOT, column projection or
    [*], LIMIT; two-table equi-joins
    [SELECT … FROM a JOIN b ON a.x = b.y [WHERE …] [LIMIT n]];
    INSERT INTO … VALUES; CREATE TABLE. Hand-written lexer and
    recursive-descent parser — no external parser generators in the
    sealed environment.

    Identifiers are case-sensitive; keywords are not. Identifiers may
    be double-quoted (["…"] with [""] escaping) to spell names that
    collide with keywords or use characters outside
    [[A-Za-z_][A-Za-z0-9_]*]. String literals use single quotes with
    [''] escaping; blob literals are [X'hex'].

    Inside a JOIN, every column reference (projection, ON, WHERE) must
    be qualified as [table.column] and the qualifier must name one of
    the two joined tables — a violation is a parse error anchored at
    the offending reference's own token position. Outside a JOIN,
    qualified references are rejected the same way. *)

type select = {
  projection : [ `Star | `Columns of string list ];
  table : string;
  where : Predicate.t;
  limit : int option;
}

type qualified = { q_table : string; q_column : string }
(** One [table.column] reference. *)

val qualified_name : qualified -> string
(** The ["table.column"] spelling used for join predicates and the
    combined result schema. *)

type join = {
  j_projection : [ `Star | `Columns of qualified list ];
  j_left : string;
  j_right : string;
  j_on_left : qualified;  (** qualifier = [j_left] (the parser normalizes ON order) *)
  j_on_right : qualified;  (** qualifier = [j_right] *)
  j_where : Predicate.t;  (** columns spelled ["table.column"] *)
  j_limit : int option;
}

type statement =
  | Select of select
  | Select_join of join
  | Insert of { table : string; values : Value.t list }
  | Create_table of { table : string; columns : Schema.column list }
  | Delete of { table : string; where : Predicate.t }
  | Update of { table : string; assignments : (string * Value.t) list; where : Predicate.t }

val parse : string -> (statement, string) result
(** Parse one statement. The error message includes the offending
    position. *)

val parse_predicate : string -> (Predicate.t, string) result
(** Parse a bare WHERE-clause expression (used by tests and the proxy). *)

val print_statement : statement -> string
(** Render a statement back to parseable SQL. Identifiers are quoted
    exactly when needed, TEXT literals use [''] escaping, REAL literals
    use the shortest decimal spelling that parses back to the same
    float. For every statement the parser can produce,
    [parse (print_statement st) = Ok st]. ASTs the grammar cannot
    express are canonicalized: right-nested same-connective And/Or
    chains are flattened (the parser folds them flat anyway) and empty
    And/Or print as [TRUE] / [NOT TRUE]. Raises [Invalid_argument] for
    the remaining inexpressible literals (non-finite REAL, empty IN
    list, unbounded Range). *)

val print_predicate : Predicate.t -> string
(** {!print_statement} for a bare WHERE-clause expression:
    [parse_predicate (print_predicate p)] returns [p] for every
    parser-producible predicate. *)

val print_value : Value.t -> string
(** One SQL literal (as found inside the statements above). *)

type query_result = {
  columns : string list;  (** names of the projected columns (qualified for a join) *)
  rows : Value.t array list;
  affected : int;  (** rows inserted / deleted / updated *)
  exec : Executor.result option;  (** None for non-SELECT / join statements *)
  join_exec : Join.result option;  (** Some for joins only *)
}

val join_schema : join -> Schema.t -> Schema.t -> (Schema.t, string) result
(** The combined row schema of a join: left's columns spelled
    ["left.col"] followed by right's spelled ["right.col"]. [Error] if
    a qualified name collides (e.g. self-referential table names). *)

val join_projection : join -> Schema.t -> (string list, string) result
(** Resolve a join's projection against the combined schema from
    {!join_schema}: the full qualified column list for [`Star], the
    validated requested names otherwise. *)

val execute : Database.t -> string -> (query_result, string) result
(** Parse and run a statement against the database. SELECT, DELETE and
    UPDATE find their rows through a {!Table.freeze} of the table;
    SELECT projects and applies LIMIT client-side of the executor;
    DELETE and UPDATE then mutate the live table. INSERT/CREATE return an
    empty row set. A JOIN freezes both tables in one epoch-consistent
    step ({!Database.freeze_pair}), hash-joins on value equality
    ({!Join.Equi}), filters the combined [left.col]/[right.col] row
    space by WHERE, then projects and applies LIMIT — the plaintext
    reference the encrypted join path is checked against. *)
