type t =
  | True
  | Eq of string * Value.t
  | In of string * Value.t list
  | Range of string * Value.t option * Value.t option
  | And of t list
  | Or of t list
  | Not of t

(* TEXT equality runs in constant time: the proxy's residual compares
   decrypted secrets, and only the outcome may leak. An IN tests a TEXT
   cell against every TEXT value in the list, without stopping at a
   match; other cells take the hash set. *)
let text_equal_any texts s =
  List.fold_left (fun hit t -> Stdx.Bytes_util.ct_equal s t || hit) false texts

let rec compile schema p =
  match p with
  | True -> fun _ -> true
  | Eq (col, Value.Text t) ->
      let i = Schema.column_index schema col in
      fun row -> (match row.(i) with Value.Text s -> Stdx.Bytes_util.ct_equal s t | _ -> false)
  | Eq (col, v) ->
      let i = Schema.column_index schema col in
      fun row -> Value.equal row.(i) v
  | In (col, vs) ->
      let i = Schema.column_index schema col in
      let texts = List.filter_map (function Value.Text t -> Some t | _ -> None) vs in
      let set = Hashtbl.create (List.length vs) in
      List.iter (function Value.Text _ -> () | v -> Hashtbl.replace set v ()) vs;
      fun row -> (match row.(i) with Value.Text s -> text_equal_any texts s | v -> Hashtbl.mem set v)
  | Range (col, lo, hi) ->
      let i = Schema.column_index schema col in
      fun row ->
        let v = row.(i) in
        (match lo with None -> true | Some l -> Value.compare v l >= 0)
        && (match hi with None -> true | Some h -> Value.compare v h <= 0)
  | And ps ->
      let fs = List.map (compile schema) ps in
      fun row -> List.for_all (fun f -> f row) fs
  | Or ps ->
      let fs = List.map (compile schema) ps in
      fun row -> List.exists (fun f -> f row) fs
  | Not p ->
      let f = compile schema p in
      fun row -> not (f row)

let columns p =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      out := c :: !out
    end
  in
  let rec go = function
    | True -> ()
    | Eq (c, _) | In (c, _) | Range (c, _, _) -> add c
    | And ps | Or ps -> List.iter go ps
    | Not p -> go p
  in
  go p;
  List.rev !out

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "TRUE"
  | Eq (c, v) -> Format.fprintf ppf "%s = %a" c Value.pp v
  | In (c, vs) ->
      Format.fprintf ppf "%s IN (%a)" c
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
        vs
  | Range (c, lo, hi) ->
      let bound ppf = function None -> Format.pp_print_string ppf "_" | Some v -> Value.pp ppf v in
      Format.fprintf ppf "%s BETWEEN %a AND %a" c bound lo bound hi
  | And ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND ") pp)
        ps
  | Or ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " OR ") pp)
        ps
  | Not p -> Format.fprintf ppf "NOT %a" pp p
