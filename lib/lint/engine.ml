(* The analysis core: parse one compilation unit with compiler-libs and
   walk it with Ast_iterator, collecting Diagnostic.t values for every
   enabled rule. All checks are purely syntactic — the linter never
   typechecks, so it can run on any tree that parses, before a build.
   The price is that R1/R2 are heuristic: they key on binding names and
   explicit type annotations rather than inferred types. The heuristics
   are tuned to this repo's naming conventions (DESIGN.md "Static
   analysis") and deliberate exceptions go in lint.allow. *)

open Parsetree

module SS = Set.Make (String)

(* ---------------- path scoping ---------------- *)

let normalize_path p =
  if String.length p >= 2 && String.sub p 0 2 = "./" then String.sub p 2 (String.length p - 2)
  else p

let has_suffix ~suf s =
  let ls = String.length s and l = String.length suf in
  ls >= l && String.sub s (ls - l) l = suf

let parts_of p = String.split_on_char '/' (normalize_path p)

(* [dir_scope ["lib";"crypto"] path] — does [path] contain the
   consecutive directory components lib/crypto? Works both for
   repo-relative paths (lib/crypto/hmac.ml) and absolute fixture paths
   (/tmp/x/lib/crypto/hmac.ml). *)
let dir_scope dirs path =
  let parts = parts_of path in
  let rec starts l sub =
    match (l, sub) with
    | _, [] -> true
    | [], _ -> false
    | x :: l', y :: sub' -> x = y && starts l' sub'
  in
  let rec scan = function
    | [] -> false
    | _ :: tl as l -> starts l dirs || scan tl
  in
  scan parts

let in_lib path = dir_scope [ "lib" ] path
let in_secret_scope path = dir_scope [ "lib"; "crypto" ] path || dir_scope [ "lib"; "core" ] path

(* R3's two sanctioned modules: the seedable PRNG and the clock shim. *)
let r3_exempt path =
  let p = normalize_path path in
  has_suffix ~suf:"lib/stdx/prng.ml" p || has_suffix ~suf:"lib/stdx/clock.ml" p
  || p = "lib/stdx/prng.ml" || p = "lib/stdx/clock.ml"

(* ---------------- name heuristics ---------------- *)

(* Bindings that denote key material by naming convention. Deliberately
   NOT a "key_*" prefix match: schema plumbing like key_column/key_pos
   names the primary-key column, not key material. *)
let secretish_name n =
  match n with
  | "key" | "master" | "ikm" | "prk" | "k0" | "k1" -> true
  | _ -> has_suffix ~suf:"_key" n

(* Operands R2 treats as crypto-sensitive: tags, MACs, digests, keys. *)
let tagish_name n =
  match n with
  | "tag" | "mac" | "digest" -> true
  | _ ->
      has_suffix ~suf:"_tag" n || has_suffix ~suf:"_mac" n || has_suffix ~suf:"_digest" n
      || secretish_name n

(* Type annotations that mark a binding as key material. *)
let secret_type_path = function
  | [ "Keys"; "master" ] | [ "Keys"; "t" ] | [ "Prf"; "key" ] | [ "Aead"; "key" ]
  | [ "Ctr"; "key" ] | [ "Aes128"; "key" ] | [ "Hmac"; "key" ] ->
      true
  | _ -> false

let last2 l =
  match List.rev l with b :: a :: _ -> [ a; b ] | [ only ] -> [ only ] | [] -> []

let is_secret_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> secret_type_path (last2 (Longident.flatten txt))
  | _ -> false

(* ---------------- longident helpers ---------------- *)

let flatten_ident (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (Longident.flatten txt) | _ -> None

let rec unwrap (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) -> unwrap e'
  | _ -> e

(* The binding name an expression refers to, if it is a plain variable
   or field access: [key] -> "key", [Crypto.Keys.master] -> "master",
   [k.mac_key] -> "mac_key". *)
let referenced_name e =
  match (unwrap e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (Longident.flatten txt) with n :: _ -> Some n | [] -> None)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Longident.flatten txt) with n :: _ -> Some n | [] -> None)
  | _ -> None

let pattern_var_names p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pat ->
          (match pat.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self pat);
    }
  in
  it.pat it p;
  !acc

(* ---------------- sink classification (R1) ---------------- *)

type sink = Printing of string | Hex_dump | Exception_payload of string

let sink_of_fn parts =
  match parts with
  | "Printf" :: _ -> Some (Printing "Printf")
  | "Format" :: _ -> Some (Printing "Format")
  | [ f ]
    when List.mem f
           [ "print_string"; "print_endline"; "print_bytes"; "print_char";
             "prerr_string"; "prerr_endline"; "prerr_bytes"; "output_string" ] ->
      Some (Printing f)
  | _ -> (
      match List.rev parts with
      | "to_hex" :: _ -> Some Hex_dump
      | f :: _ when List.mem f [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ] ->
          Some (Exception_payload f)
      | _ -> None)

(* For exception sinks, a secret smuggled through a constructor, tuple
   or string concatenation still counts: [raise (Failure key)],
   [failwith ("bad " ^ key)]. Descend through those shapes only. *)
let rec exception_arg_names (e : expression) =
  let e = unwrap e in
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_field _ -> (
      match referenced_name e with Some n -> [ (n, e.pexp_loc) ] | None -> [])
  | Pexp_construct (_, Some arg) -> exception_arg_names arg
  | Pexp_tuple args -> List.concat_map exception_arg_names args
  | Pexp_apply (fn, args) -> (
      match flatten_ident fn with
      | Some [ "^" ] | Some [ "Stdlib"; "^" ] ->
          List.concat_map (fun (_, a) -> exception_arg_names a) args
      | _ -> [])
  | _ -> []

(* ---------------- comparison classification (R2) ---------------- *)

let variable_time_eq parts =
  match parts with
  | [ "=" ] | [ "<>" ] | [ "compare" ] -> Some "polymorphic comparison"
  | [ "Stdlib"; ("=" | "<>" | "compare") ] -> Some "polymorphic comparison"
  | [ ("String" | "Bytes") as m; (("equal" | "compare") as f) ] -> Some (m ^ "." ^ f)
  | _ -> None

(* ---------------- banned ambient effects (R3) ---------------- *)

let nondeterministic_ident parts =
  match parts with
  | "Random" :: _ :: _ -> Some "Random"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; "gettimeofday" ] -> Some "Unix.gettimeofday"
  | [ "Unix"; "time" ] -> Some "Unix.time"
  | _ -> None

(* ---------------- raw file writes (R6) ---------------- *)

(* Write-capable file primitives. Durability (fsync placement, atomic
   renames, torn-write handling) is Store.Io's whole job; a stray
   open_out elsewhere silently reintroduces non-crash-safe output.
   Reads (In_channel, open_in) are unrestricted. *)
let raw_write_ident parts =
  let out_channel_writers =
    [ "open_text"; "open_bin"; "open_gen"; "with_open_text"; "with_open_bin"; "with_open_gen" ]
  in
  let unix_writers =
    [ "openfile"; "write"; "single_write"; "write_substring"; "ftruncate"; "rename"; "fsync" ]
  in
  match parts with
  | [ (("open_out" | "open_out_bin" | "open_out_gen") as f) ]
  | [ "Stdlib"; (("open_out" | "open_out_bin" | "open_out_gen") as f) ] ->
      Some f
  | [ "Out_channel"; f ] | [ "Stdlib"; "Out_channel"; f ] when List.mem f out_channel_writers ->
      Some ("Out_channel." ^ f)
  | [ "Unix"; f ] when List.mem f unix_writers -> Some ("Unix." ^ f)
  | _ -> None

(* ---------------- the per-file pass ---------------- *)

type ctx = {
  path : string;
  rules : Rule.t list;
  mutable secrets : SS.t; (* bindings annotated with a key type (R1) *)
  mutable diags : Diagnostic.t list;
}

let enabled ctx r = List.exists (Rule.equal r) ctx.rules

let report ctx rule loc msg = ctx.diags <- Diagnostic.of_location ~rule ~loc msg :: ctx.diags

(* Pass 1: collect names bound with an explicit key-material type, so
   R1 can recognise [let mk : Keys.master = ...; print_string mk]. *)
let collect_secrets ctx structure =
  let add_pattern p = List.iter (fun n -> ctx.secrets <- SS.add n ctx.secrets) (pattern_var_names p) in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_constraint (inner, ty) when is_secret_type ty -> add_pattern inner
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
      value_binding =
        (fun self vb ->
          (match vb.pvb_constraint with
          | Some (Pvc_constraint { typ; _ }) when is_secret_type typ -> add_pattern vb.pvb_pat
          | Some (Pvc_coercion { coercion; _ }) when is_secret_type coercion ->
              add_pattern vb.pvb_pat
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it structure

let secret_operand ctx e =
  match referenced_name e with
  | Some n -> if secretish_name n || SS.mem n ctx.secrets then Some n else None
  | None -> None

let tagish_operand ctx e =
  match referenced_name e with
  | Some n -> if tagish_name n || SS.mem n ctx.secrets then Some n else None
  | None -> None

let check_r1 ctx fn args loc =
  match flatten_ident fn with
  | None -> ()
  | Some parts -> (
      match sink_of_fn parts with
      | None -> ()
      | Some (Printing what) ->
          List.iter
            (fun (_, a) ->
              match secret_operand ctx a with
              | Some n ->
                  report ctx Rule.R1 loc
                    (Printf.sprintf "key material %S must not reach %s (secret hygiene)" n what)
              | None -> ())
            args
      | Some Hex_dump ->
          List.iter
            (fun (_, a) ->
              match secret_operand ctx a with
              | Some n ->
                  report ctx Rule.R1 loc
                    (Printf.sprintf "key material %S must not be hex-dumped" n)
              | None -> ())
            args
      | Some (Exception_payload f) ->
          List.iter
            (fun (_, a) ->
              List.iter
                (fun (n, nloc) ->
                  if secretish_name n || SS.mem n ctx.secrets then
                    report ctx Rule.R1 nloc
                      (Printf.sprintf "key material %S must not flow into a %s payload" n f))
                (exception_arg_names a))
            args)

let check_r2 ctx fn args loc =
  match flatten_ident fn with
  | None -> ()
  | Some parts -> (
      match variable_time_eq parts with
      | None -> ()
      | Some what ->
          List.iter
            (fun (_, a) ->
              match tagish_operand ctx a with
              | Some n ->
                  report ctx Rule.R2 loc
                    (Printf.sprintf
                       "%s on crypto operand %S is not constant-time; use Stdx.Bytes_util.ct_equal"
                       what n)
              | None -> ())
            args)

let lint_structure ~rules ~path (structure : structure) =
  let ctx = { path = normalize_path path; rules; secrets = SS.empty; diags = [] } in
  let secret_scope = in_secret_scope ctx.path in
  let lib_scope = in_lib ctx.path in
  let r1 = enabled ctx Rule.R1 && secret_scope in
  let r2 = enabled ctx Rule.R2 && secret_scope in
  let r3 = enabled ctx Rule.R3 && not (r3_exempt ctx.path) in
  let r5 = enabled ctx Rule.R5 && lib_scope in
  let r6 = enabled ctx Rule.R6 && not (dir_scope [ "lib"; "store" ] ctx.path) in
  if r1 then collect_secrets ctx structure;
  let expr_iter self (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply (fn, args) ->
        if r1 then check_r1 ctx fn args e.pexp_loc;
        if r2 then check_r2 ctx fn args e.pexp_loc
    | Pexp_ident { txt; _ } -> (
        let parts = Longident.flatten txt in
        (if r3 then
           match nondeterministic_ident parts with
           | Some what ->
               report ctx Rule.R3 e.pexp_loc
                 (Printf.sprintf
                    "%s breaks seed-reproducibility; use Stdx.Prng (randomness) or Stdx.Clock \
                     (time) instead"
                    what)
           | None -> ());
        (if r6 then
           match raw_write_ident parts with
           | Some what ->
               report ctx Rule.R6 e.pexp_loc
                 (Printf.sprintf
                    "raw file write %s outside lib/store; route output through Store.Io \
                     (crash-safe, fault-injectable)"
                    what)
           | None -> ());
        if r5 then
          match parts with
          | [ "Obj"; "magic" ] ->
              report ctx Rule.R5 e.pexp_loc "Obj.magic defeats the type system"
          | _ -> ())
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when r5 ->
        report ctx Rule.R5 e.pexp_loc
          "assert false is a partial escape; raise a descriptive exception instead"
    | Pexp_try (_, cases) when r5 ->
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                report ctx Rule.R5 c.pc_lhs.ppat_loc
                  "catch-all 'with _ ->' swallows unexpected exceptions; match specific ones"
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.structure it structure;
  List.sort Diagnostic.compare ctx.diags

(* ---------------- parsing ---------------- *)

let parse_implementation ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf (normalize_path path);
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error _ -> Error (Printf.sprintf "%s: syntax error" path)
  | exception _ -> Error (Printf.sprintf "%s: unparseable" path)

let lint_source ~rules ~path source =
  match parse_implementation ~path source with
  | Error _ as e -> e
  | Ok structure -> Ok (lint_structure ~rules ~path structure)

(* ---------------- tree walking + R4 ---------------- *)

let rec walk acc p =
  if Sys.is_directory p then
    let base = Filename.basename p in
    if base = "_build" || (String.length base > 0 && base.[0] = '.' && base <> ".") then acc
    else
      let entries = Sys.readdir p in
      Array.sort String.compare entries;
      Array.fold_left (fun acc f -> walk acc (Filename.concat p f)) acc entries
  else if Filename.check_suffix p ".ml" then p :: acc
  else acc

let missing_interface ~rules path =
  if List.exists (Rule.equal Rule.R4) rules && in_lib path
     && not (Sys.file_exists (Filename.chop_suffix path ".ml" ^ ".mli"))
  then
    [ Diagnostic.v ~rule:Rule.R4 ~file:(normalize_path path) ~line:1 ~col:0
        "module has no .mli; every lib/ module must declare its interface" ]
  else []

let walk_all paths = List.rev (List.fold_left walk [] paths)
