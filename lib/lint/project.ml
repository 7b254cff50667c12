(* Phase 2 of the project-level analyzer, plus the two rules that only
   make sense with (R8) or next to (R9) project context.

   [lint_units] is the whole pipeline: parse every unit, build the
   {!Summary} table to a cross-module fixpoint (phase 1), then re-walk
   each unit running every enabled rule (phase 2) — the per-file R1–R6
   core from {!Engine}, R7 from {!Taint} resolved against the summary
   table, and R8/R9 below. Each rule is timed and counted separately;
   the stats feed the driver's [--stats] table and the CI step summary. *)

open Parsetree

module SS = Set.Make (String)

type unit_src = { u_path : string; u_source : string }

type rule_stat = { sr_rule : Rule.t; hits : int; wall_ns : float }

type result = {
  diagnostics : Diagnostic.t list;
  errors : string list;
  stats : rule_stat list;
  n_units : int;
  summary_ns : float;  (** phase-1 wall time (parse + summary fixpoint) *)
}

let dir_scope = Taint.dir_scope

(* ---------------- R8: domain-safety discipline ---------------- *)

(* The fan-out surface: modules the parallel read path executes on
   worker domains (PR 5's executor/proxy/encrypted_db pipeline lives in
   these three libraries, and PR 7's batched-admission server fans
   session state over the same pool). Module-level mutable state here
   must be Atomic, Domain.DLS, or behind an annotated mutex. *)
let r8_dir_scope path =
  dir_scope [ "lib"; "sqldb" ] path || dir_scope [ "lib"; "core" ] path
  || dir_scope [ "lib"; "obs" ] path
  || dir_scope [ "lib"; "server" ] path

let type_path_is (t : core_type) want =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
      match List.rev (Longident.flatten txt) with
      | b :: a :: _ -> [ a; b ] = want
      | [ only ] -> [ only ] = want
      | [] -> false)
  | _ -> false

let is_atomic_type t = type_path_is t [ "Atomic"; "t" ]
let is_hashtbl_type t = type_path_is t [ "Hashtbl"; "t" ]

let check_r8 ~path ~guard ~reachable structure =
  if not (r8_dir_scope path) then []
  else if not reachable then []
  else
    match guard with
    | Some _ -> [] (* module-annotated: state is behind the named mutex *)
    | None ->
        let diags = ref [] in
        let report loc msg =
          diags := Diagnostic.of_location ~rule:Rule.R8 ~loc msg :: !diags
        in
        let hint = "use Atomic/Domain.DLS or annotate (* lint: guarded-by <mutex> *)" in
        let check_label (ld : label_declaration) =
          if ld.pld_mutable = Mutable && not (is_atomic_type ld.pld_type) then
            report ld.pld_loc
              (Printf.sprintf
                 "mutable field %S in a module reachable from Task_pool fan-out; %s"
                 ld.pld_name.txt hint)
          else if is_hashtbl_type ld.pld_type then
            report ld.pld_loc
              (Printf.sprintf
                 "Hashtbl field %S in a module reachable from Task_pool fan-out; %s"
                 ld.pld_name.txt hint)
        in
        let check_top_binding (vb : value_binding) =
          match (Taint.unwrap vb.pvb_expr).pexp_desc with
          | Pexp_apply (fn, _) -> (
              match Taint.flatten_ident fn with
              | Some [ "ref" ] | Some [ "Stdlib"; "ref" ] ->
                  report vb.pvb_loc
                    (Printf.sprintf "module-level ref shared across domains; %s" hint)
              | Some parts when Taint.last2 parts = [ "Hashtbl"; "create" ] ->
                  report vb.pvb_loc
                    (Printf.sprintf "module-level Hashtbl shared across domains; %s" hint)
              | _ -> ())
          | _ -> ()
        in
        let it =
          {
            Ast_iterator.default_iterator with
            type_declaration =
              (fun self td ->
                (match td.ptype_kind with
                | Ptype_record labels -> List.iter check_label labels
                | _ -> ());
                Ast_iterator.default_iterator.type_declaration self td);
            structure_item =
              (fun self item ->
                (match item.pstr_desc with
                | Pstr_value (_, vbs) -> List.iter check_top_binding vbs
                | _ -> ());
                Ast_iterator.default_iterator.structure_item self item);
          }
        in
        it.structure it structure;
        List.sort Diagnostic.compare !diags

(* ---------------- R9: durability discipline ---------------- *)

(* Syntactic write->fsync->rename->dirsync order inside lib/store: a
   rename while any tracked fd has unsynced writes, or a close of an
   fd whose last write was never fsynced, is exactly the shape that
   loses acknowledged data on crash (the fault-injection suite proves
   the discipline dynamically; R9 keeps new code from regressing it). *)

let last_component parts = match List.rev parts with f :: _ -> Some f | [] -> None

let r9_open parts =
  match last_component parts with
  | Some ("open_trunc" | "open_append" | "openfile" | "open_out" | "open_out_bin" | "open_out_gen")
    ->
      true
  | _ -> false

let r9_write parts =
  match last_component parts with
  | Some
      ( "write" | "write_substring" | "single_write" | "write_all" | "output_string"
      | "output_bytes" | "truncate" | "ftruncate" ) ->
      true
  | _ -> false

let r9_fsync parts = last_component parts = Some "fsync"
let r9_close parts = last_component parts = Some "close"
let r9_rename parts = last_component parts = Some "rename"

(* The fd operand an I/O call names, as a stable syntactic key:
   [f] -> "f", [t.file] -> "t.file", [f.fd] -> "f.fd". *)
let rec expr_key (e : expression) =
  match (Taint.unwrap e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | Pexp_field (base, { txt; _ }) -> (
      match (expr_key base, List.rev (Longident.flatten txt)) with
      | Some b, f :: _ -> Some (b ^ "." ^ f)
      | _ -> None)
  | _ -> None

let first_positional args =
  List.find_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args

let check_r9 ~path structure =
  if not (dir_scope [ "lib"; "store" ] path) then []
  else begin
    let diags = ref [] in
    let report loc msg = diags := Diagnostic.of_location ~rule:Rule.R9 ~loc msg :: !diags in
    (* dirty.(key) = true: bytes written since the last fsync of key *)
    let rec scan (dirty : (string, bool) Hashtbl.t) (e : expression) =
      match e.pexp_desc with
      | Pexp_let (_, vbs, body) ->
          List.iter
            (fun vb ->
              scan dirty vb.pvb_expr;
              match (Taint.unwrap vb.pvb_expr).pexp_desc with
              | Pexp_apply (fn, _)
                when Option.fold ~none:false ~some:r9_open (Taint.flatten_ident fn) -> (
                  match Taint.pattern_var_names vb.pvb_pat with
                  | [ v ] -> Hashtbl.replace dirty v false
                  | _ -> ())
              | _ -> ())
            vbs;
          scan dirty body
      | Pexp_sequence (a, b) ->
          scan dirty a;
          scan dirty b
      | Pexp_apply (fn, args) -> (
          List.iter (fun (_, a) -> scan dirty a) args;
          match Taint.flatten_ident fn with
          | None -> ()
          | Some parts ->
              let key () = Option.bind (first_positional args) expr_key in
              if r9_write parts then begin
                match key () with
                | Some k -> Hashtbl.replace dirty k true
                | None -> ()
              end
              else if r9_fsync parts then begin
                match key () with
                | Some k -> Hashtbl.replace dirty k false
                | None -> ()
              end
              else if r9_close parts then begin
                match key () with
                | Some k ->
                    if Hashtbl.find_opt dirty k = Some true then
                      report e.pexp_loc
                        (Printf.sprintf
                           "fd %S is closed with unsynced writes (unsynced-fd-leak): fsync \
                            before close"
                           k);
                    Hashtbl.remove dirty k
                | None -> ()
              end
              else if r9_rename parts then begin
                let unsynced =
                  Hashtbl.fold (fun k d acc -> if d then k :: acc else acc) dirty []
                in
                match unsynced with
                | k :: _ ->
                    report e.pexp_loc
                      (Printf.sprintf
                         "rename while fd %S has unsynced writes (rename-before-sync): the \
                          published file may be torn after a crash"
                         k)
                | [] -> ()
              end)
      | Pexp_ifthenelse (c, t, f) ->
          scan dirty c;
          scan dirty t;
          Option.iter (scan dirty) f
      | Pexp_match (s, cases) | Pexp_try (s, cases) ->
          scan dirty s;
          List.iter (fun c -> scan dirty c.pc_rhs) cases
      | Pexp_while (c, body) ->
          scan dirty c;
          scan dirty body
      | Pexp_for (_, a, b, _, body) ->
          scan dirty a;
          scan dirty b;
          scan dirty body
      | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_open (_, e')
      | Pexp_letmodule (_, _, e') ->
          scan dirty e'
      | Pexp_fun (_, _, _, body) ->
          (* a nested closure is a separate execution: fresh fd state *)
          scan (Hashtbl.create 4) body
      | Pexp_tuple es | Pexp_array es -> List.iter (scan dirty) es
      | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) | Pexp_field (a, _)
      | Pexp_assert a | Pexp_lazy a ->
          scan dirty a
      | Pexp_setfield (a, _, b) ->
          scan dirty a;
          scan dirty b
      | Pexp_record (fields, base) ->
          List.iter (fun (_, a) -> scan dirty a) fields;
          Option.iter (scan dirty) base
      | _ -> ()
    in
    let it =
      {
        Ast_iterator.default_iterator with
        structure_item =
          (fun self item ->
            (match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter (fun vb -> scan (Hashtbl.create 4) vb.pvb_expr) vbs
            | _ -> ());
            (* do NOT recurse into expressions again; submodules still
               get their own structure_item visits *)
            match item.pstr_desc with
            | Pstr_module _ | Pstr_recmodule _ | Pstr_include _ ->
                Ast_iterator.default_iterator.structure_item self item
            | _ -> ());
      }
    in
    it.structure it structure;
    List.sort Diagnostic.compare !diags
  end

(* ---------------- the two-phase pipeline ---------------- *)

type parsed = { p_path : string; p_source : string; p_structure : structure }

let parse_units units =
  List.fold_left
    (fun (parsed, errors) { u_path; u_source } ->
      let path = Engine.normalize_path u_path in
      match Engine.parse_implementation ~path u_source with
      | Ok s -> ({ p_path = path; p_source = u_source; p_structure = s } :: parsed, errors)
      | Error e -> (parsed, e :: errors))
    ([], []) units
  |> fun (p, e) -> (List.rev p, List.rev e)

(* Phase 1 to a fixpoint: secret provenance can chain through modules
   (A returns a key, B re-exports A's result), so summaries are
   rebuilt with the previous round's lookup until the secret-value
   count stops growing. Bounded by the dependency depth; 5 rounds is
   generous for this tree. *)
let build_summaries parsed =
  let build lookup =
    List.map
      (fun p -> Summary.build ~path:p.p_path ~source:p.p_source ~lookup p.p_structure)
      parsed
  in
  let count summaries =
    List.fold_left (fun n s -> n + SS.cardinal s.Summary.secret_values) 0 summaries
  in
  let rec fix summaries rounds =
    if rounds >= 5 then summaries
    else
      let next = build (Summary.lookup_of_table (Summary.table_of_list summaries)) in
      if count next = count summaries then next else fix next (rounds + 1)
  in
  fix (build (fun _ _ -> false)) 0

let enabled rules r = List.exists (Rule.equal r) rules

let lint_units ?(check_mli = false) ~rules units =
  let parsed, errors = parse_units units in
  let t0 = Stdx.Clock.now_ns () in
  let need_summaries = enabled rules Rule.R7 || enabled rules Rule.R8 in
  let summaries = if need_summaries then build_summaries parsed else [] in
  let lookup =
    if need_summaries then Summary.lookup_of_table (Summary.table_of_list summaries)
    else fun _ _ -> false
  in
  let pool_users = List.exists (fun s -> s.Summary.uses_task_pool) summaries in
  let reachable_fn = Summary.fanout_reachable summaries in
  let guard_of = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace guard_of s.Summary.path s.Summary.guard) summaries;
  let summary_ns = Stdx.Clock.now_ns () -. t0 in
  let hits = Hashtbl.create 16 in
  let walls = Hashtbl.create 16 in
  let run rule f =
    let t0 = Stdx.Clock.now_ns () in
    let ds = f () in
    let dt = Stdx.Clock.now_ns () -. t0 in
    Hashtbl.replace walls rule (dt +. Option.value ~default:0.0 (Hashtbl.find_opt walls rule));
    Hashtbl.replace hits rule
      (List.length ds + Option.value ~default:0 (Hashtbl.find_opt hits rule));
    ds
  in
  let per_file = [ Rule.R1; Rule.R2; Rule.R3; Rule.R5; Rule.R6 ] in
  let diags =
    List.concat_map
      (fun p ->
        let engine_diags =
          List.concat_map
            (fun r ->
              if enabled rules r then
                run r (fun () ->
                    Engine.lint_structure ~rules:[ r ] ~path:p.p_path p.p_structure)
              else [])
            per_file
        in
        let r4 =
          if check_mli && enabled rules Rule.R4 then
            run Rule.R4 (fun () -> Engine.missing_interface ~rules p.p_path)
          else []
        in
        let r7 =
          if enabled rules Rule.R7 && not (dir_scope [ "examples" ] p.p_path) then
            run Rule.R7 (fun () -> Taint.check ~path:p.p_path ~lookup p.p_structure)
          else []
        in
        let r8 =
          if enabled rules Rule.R8 then
            run Rule.R8 (fun () ->
                let module_name = Summary.module_name_of_path p.p_path in
                let reachable = (not pool_users) || reachable_fn module_name in
                let guard =
                  Option.join (Hashtbl.find_opt guard_of p.p_path)
                in
                check_r8 ~path:p.p_path ~guard ~reachable p.p_structure)
          else []
        in
        let r9 =
          if enabled rules Rule.R9 then
            run Rule.R9 (fun () -> check_r9 ~path:p.p_path p.p_structure)
          else []
        in
        engine_diags @ r4 @ r7 @ r8 @ r9)
      parsed
  in
  let stats =
    List.filter_map
      (fun r ->
        match (Hashtbl.find_opt hits r, Hashtbl.find_opt walls r) with
        | None, None -> None
        | h, w ->
            Some
              {
                sr_rule = r;
                hits = Option.value ~default:0 h;
                wall_ns = Option.value ~default:0.0 w;
              })
      Rule.all
  in
  {
    diagnostics = List.sort Diagnostic.compare diags;
    errors;
    stats;
    n_units = List.length parsed;
    summary_ns;
  }

(* Walk roots ({!Engine.walk_all}), then run the project pipeline over
   everything found — the driver's entry point. *)
let lint_paths ~rules paths =
  let missing, present = List.partition (fun p -> not (Sys.file_exists p)) paths in
  let files = Engine.walk_all present in
  let units, read_errors =
    List.fold_left
      (fun (units, errs) f ->
        match In_channel.with_open_bin f In_channel.input_all with
        | source -> ({ u_path = f; u_source = source } :: units, errs)
        | exception Sys_error e -> (units, e :: errs))
      ([], []) files
  in
  let result = lint_units ~check_mli:true ~rules (List.rev units) in
  {
    result with
    errors =
      List.map (fun p -> p ^ ": no such file or directory") missing
      @ List.rev read_errors @ result.errors;
  }
