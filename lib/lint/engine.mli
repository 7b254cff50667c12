(** The wre-lint analysis core.

    Parses [.ml] sources with compiler-libs and enforces the R1–R6
    hygiene rules (see {!Rule}) with purely syntactic checks, so the
    pass runs on any tree that parses — no build required. Scoping is
    path-based: R1/R2 fire only under [lib/crypto] and [lib/core],
    R5 under [lib/], R3 everywhere except [lib/stdx/prng.ml] and
    [lib/stdx/clock.ml], R4 for every [lib/] module, R6 everywhere
    except [lib/store] (the one module allowed raw file writes). *)

val lint_structure : rules:Rule.t list -> path:string -> Parsetree.structure -> Diagnostic.t list
(** Run the AST rules on an already-parsed unit. [path] decides which
    rules are in scope and is stamped on diagnostics. *)

val lint_source : rules:Rule.t list -> path:string -> string -> (Diagnostic.t list, string) result
(** Parse [source] (attributed to [path]) and lint it. *)

val parse_implementation :
  path:string -> string -> (Parsetree.structure, string) result
(** Parse one unit with compiler-libs, attributing positions to [path].
    Exposed so {!Project} parses each unit exactly once. *)

val walk_all : string list -> string list
(** Expand files and directories into the [.ml] files beneath them,
    skipping [_build] and dot-directories, in sorted order. *)

val missing_interface : rules:Rule.t list -> string -> Diagnostic.t list
(** The R4 interface-coverage check for one [.ml] path. *)

(**/**)

val secretish_name : string -> bool
val tagish_name : string -> bool
val normalize_path : string -> string
