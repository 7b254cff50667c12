(** The project-level two-phase pipeline: parse every unit, build
    {!Summary} tables to a cross-module fixpoint, then run all enabled
    rules — the per-file R1–R6 core from {!Engine}, R7 from {!Taint}
    resolved against the summaries, and the R8 (domain-safety) and R9
    (durability) checkers defined here. Every rule is timed and
    counted for the driver's [--stats] output. *)

type unit_src = { u_path : string; u_source : string }

type rule_stat = { sr_rule : Rule.t; hits : int; wall_ns : float }

type result = {
  diagnostics : Diagnostic.t list;
  errors : string list;  (** unreadable / unparseable units *)
  stats : rule_stat list;
  n_units : int;
  summary_ns : float;  (** phase-1 wall time *)
}

val lint_units : ?check_mli:bool -> rules:Rule.t list -> unit_src list -> result
(** Run the pipeline over in-memory sources. [check_mli] (default
    false) enables R4, which probes the filesystem for [.mli] files —
    on for tree runs, off for fixture tests. *)

val lint_paths : rules:Rule.t list -> string list -> result
(** Walk files and directories ({!Engine.walk_all}), then run
    [lint_units] over everything found, with R4 on. The driver's entry
    point. *)

(**/**)

val check_r8 :
  path:string ->
  guard:string option ->
  reachable:bool ->
  Parsetree.structure ->
  Diagnostic.t list

val check_r9 : path:string -> Parsetree.structure -> Diagnostic.t list
