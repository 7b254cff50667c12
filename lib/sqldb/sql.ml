(* lint: guarded-by call-local parser state (never shared across domains) *)
(* Lexer + recursive-descent parser for the SQL fragment. *)

type select = {
  projection : [ `Star | `Columns of string list ];
  table : string;
  where : Predicate.t;
  limit : int option;
}

type qualified = { q_table : string; q_column : string }

let qualified_name q = q.q_table ^ "." ^ q.q_column

type join = {
  j_projection : [ `Star | `Columns of qualified list ];
  j_left : string;
  j_right : string;
  j_on_left : qualified;  (* qualifier = j_left (the parser normalizes) *)
  j_on_right : qualified;  (* qualifier = j_right *)
  j_where : Predicate.t;  (* columns spelled "table.column" *)
  j_limit : int option;
}

type statement =
  | Select of select
  | Select_join of join
  | Insert of { table : string; values : Value.t list }
  | Create_table of { table : string; columns : Schema.column list }
  | Delete of { table : string; where : Predicate.t }
  | Update of { table : string; assignments : (string * Value.t) list; where : Predicate.t }

(* ---------------- Lexer ---------------- *)

type token =
  | Ident of string
  | Quoted_ident of string  (** ["…"]-quoted: never a keyword, any spelling *)
  | Int_lit of int64
  | Float_lit of float
  | String_lit of string
  | Blob_lit of string
  | Star
  | Comma
  | Dot
  | Lparen
  | Rparen
  | Eq
  | Neq
  | Le
  | Ge
  | Lt
  | Gt
  | Eof

exception Parse_error of string * int

let error pos fmt = Printf.ksprintf (fun m -> raise (Parse_error (m, pos))) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = Stdx.Vec.create () in
  let push pos tok = Stdx.Vec.push tokens (tok, pos) in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let word = String.sub src !i (!j - !i) in
      i := !j;
      (* X'ab12' blob literal *)
      if (word = "x" || word = "X") && !i < n && src.[!i] = '\'' then begin
        let k = ref (!i + 1) in
        while !k < n && src.[!k] <> '\'' do
          incr k
        done;
        if !k >= n then error pos "unterminated blob literal";
        let hex = String.sub src (!i + 1) (!k - !i - 1) in
        i := !k + 1;
        match Stdx.Bytes_util.of_hex hex with
        | s -> push pos (Blob_lit s)
        | exception Invalid_argument _ -> error pos "malformed hex in blob literal"
      end
      else push pos (Ident word)
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_digit src.[!j] || src.[!j] = '.' || src.[!j] = 'e'
           || ((src.[!j] = '-' || src.[!j] = '+') && src.[!j - 1] = 'e'))
      do
        incr j
      done;
      let text = String.sub src !i (!j - !i) in
      i := !j;
      if String.contains text '.' || String.contains text 'e' then
        match float_of_string_opt text with
        | Some f -> push pos (Float_lit f)
        | None -> error pos "malformed number %S" text
      else begin
        match Int64.of_string_opt text with
        | Some v -> push pos (Int_lit v)
        | None -> error pos "malformed integer %S" text
      end
    end
    else if c = '\'' then begin
      (* string literal with '' escape *)
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while not !closed do
        if !j >= n then error pos "unterminated string literal";
        if src.[!j] = '\'' then
          if !j + 1 < n && src.[!j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            j := !j + 2
          end
          else begin
            closed := true;
            incr j
          end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      i := !j;
      push pos (String_lit (Buffer.contents buf))
    end
    else if c = '"' then begin
      (* quoted identifier with "" escape: never a keyword, any spelling *)
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while not !closed do
        if !j >= n then error pos "unterminated quoted identifier";
        if src.[!j] = '"' then
          if !j + 1 < n && src.[!j + 1] = '"' then begin
            Buffer.add_char buf '"';
            j := !j + 2
          end
          else begin
            closed := true;
            incr j
          end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      i := !j;
      push pos (Quoted_ident (Buffer.contents buf))
    end
    else begin
      incr i;
      match c with
      | '*' -> push pos Star
      | ',' -> push pos Comma
      | '.' -> push pos Dot
      | '(' -> push pos Lparen
      | ')' -> push pos Rparen
      | '=' -> push pos Eq
      | ';' -> () (* trailing semicolons are noise *)
      | '<' ->
          if !i < n && src.[!i] = '=' then begin
            incr i;
            push pos Le
          end
          else if !i < n && src.[!i] = '>' then begin
            incr i;
            push pos Neq
          end
          else push pos Lt
      | '>' ->
          if !i < n && src.[!i] = '=' then begin
            incr i;
            push pos Ge
          end
          else push pos Gt
      | '!' ->
          if !i < n && src.[!i] = '=' then begin
            incr i;
            push pos Neq
          end
          else error pos "unexpected character '!'"
      | _ -> error pos "unexpected character %C" c
    end
  done;
  push n Eof;
  Stdx.Vec.to_array tokens

(* ---------------- Parser ---------------- *)

type parser_state = { toks : (token * int) array; mutable cur : int }

let peek p = fst p.toks.(p.cur)
let pos p = snd p.toks.(p.cur)
let advance p = p.cur <- p.cur + 1

let keyword p = match peek p with Ident w -> Some (String.uppercase_ascii w) | _ -> None

let expect_keyword p kw =
  match keyword p with
  | Some w when w = kw -> advance p
  | _ -> error (pos p) "expected %s" kw

let accept_keyword p kw =
  match keyword p with
  | Some w when w = kw ->
      advance p;
      true
  | _ -> false

let is_reserved w =
  match String.uppercase_ascii w with
  | "SELECT" | "FROM" | "WHERE" | "AND" | "OR" | "NOT" | "IN" | "BETWEEN" | "LIMIT"
  | "INSERT" | "INTO" | "VALUES" | "CREATE" | "TABLE" | "NULL" | "DELETE" | "UPDATE" | "SET"
  | "JOIN" | "ON" ->
      true
  | _ -> false

let expect_ident p =
  match peek p with
  | Ident w ->
      if is_reserved w then error (pos p) "keyword %S where an identifier was expected" w
      else begin
        advance p;
        w
      end
  | Quoted_ident w ->
      advance p;
      w
  | _ -> error (pos p) "expected an identifier"

let expect p tok what =
  if peek p = tok then advance p else error (pos p) "expected %s" what

let parse_literal p =
  match peek p with
  | Int_lit v ->
      advance p;
      Value.Int v
  | Float_lit v ->
      advance p;
      Value.Real v
  | String_lit s ->
      advance p;
      Value.Text s
  | Blob_lit s ->
      advance p;
      Value.Blob s
  | Ident w when String.uppercase_ascii w = "NULL" ->
      advance p;
      Value.Null
  | _ -> error (pos p) "expected a literal"

(* Column references come in two spellings, picked by the statement
   context: bare identifiers in single-table statements, mandatory
   [table.column] inside a JOIN (qualifier-checked against the two
   joined tables, with the error anchored at the reference's own
   token — not the statement start). The predicate grammar below is
   parameterized over [col], the reference parser. *)

let bare_column p =
  let cpos = pos p in
  let c = expect_ident p in
  if peek p = Dot then
    error cpos "qualified reference %S is only allowed in a JOIN query" c;
  c

(* [table.column] with both parts mandatory; the qualifier must name
   one of the two joined tables. Errors point at the first token of the
   reference. *)
let qualified_ref ~jleft ~jright p =
  let qpos = pos p in
  let t = expect_ident p in
  if peek p <> Dot then
    error qpos "column %S must be qualified as table.column inside a JOIN" t;
  advance p;
  let c = expect_ident p in
  if t <> jleft && t <> jright then
    error qpos "unknown table %S in qualified reference (this join reads %S and %S)" t jleft
      jright;
  { q_table = t; q_column = c }

let rec parse_or ~col p =
  let left = parse_and ~col p in
  if accept_keyword p "OR" then
    let right = parse_or ~col p in
    match right with Predicate.Or rs -> Predicate.Or (left :: rs) | r -> Predicate.Or [ left; r ]
  else left

and parse_and ~col p =
  let left = parse_not ~col p in
  if accept_keyword p "AND" then
    let right = parse_and ~col p in
    match right with Predicate.And rs -> Predicate.And (left :: rs) | r -> Predicate.And [ left; r ]
  else left

and parse_not ~col p =
  if accept_keyword p "NOT" then Predicate.Not (parse_not ~col p) else parse_atom ~col p

and parse_atom ~col p =
  if peek p = Lparen then begin
    advance p;
    let e = parse_or ~col p in
    expect p Rparen "')'";
    e
  end
  else begin
    match keyword p with
    | Some "TRUE" ->
        advance p;
        Predicate.True
    | _ ->
        let col = col p in
        if accept_keyword p "IN" then begin
          expect p Lparen "'('";
          let vs = ref [ parse_literal p ] in
          while peek p = Comma do
            advance p;
            vs := parse_literal p :: !vs
          done;
          expect p Rparen "')'";
          Predicate.In (col, List.rev !vs)
        end
        else if accept_keyword p "BETWEEN" then begin
          let lo = parse_literal p in
          expect_keyword p "AND";
          let hi = parse_literal p in
          Predicate.Range (col, Some lo, Some hi)
        end
        else begin
          match peek p with
          | Eq ->
              advance p;
              Predicate.Eq (col, parse_literal p)
          | Neq ->
              advance p;
              Predicate.Not (Predicate.Eq (col, parse_literal p))
          | Le ->
              advance p;
              Predicate.Range (col, None, Some (parse_literal p))
          | Ge ->
              advance p;
              Predicate.Range (col, Some (parse_literal p), None)
          | (Lt | Gt) as op ->
              (* Strict bounds rewrite to the inclusive Range the rest
                 of the planner speaks: [col < n] ≡ [col <= n-1] over
                 integers, [col > n] ≡ [col >= n+1]. The int64 edges
                 have no adjacent value — [< min_int] / [> max_int] is
                 unsatisfiable, which [NOT TRUE] expresses exactly. *)
              advance p;
              let vpos = pos p in
              let v = parse_literal p in
              (match (v, op) with
              | Value.Int x, Lt ->
                  if Int64.equal x Int64.min_int then Predicate.Not Predicate.True
                  else Predicate.Range (col, None, Some (Value.Int (Int64.pred x)))
              | Value.Int x, _ ->
                  if Int64.equal x Int64.max_int then Predicate.Not Predicate.True
                  else Predicate.Range (col, Some (Value.Int (Int64.succ x)), None)
              | _ ->
                  error vpos
                    "strict comparisons take an integer bound; use BETWEEN / <= / >= otherwise")
          | _ -> error (pos p) "expected a comparison after column %S" col
        end
  end

let parse_limit p =
  if accept_keyword p "LIMIT" then begin
    match peek p with
    | Int_lit v ->
        advance p;
        Some (Int64.to_int v)
    | _ -> error (pos p) "expected an integer after LIMIT"
  end
  else None

(* A projection item, before we know whether the statement is a join:
   [ident] or [ident.ident], with the position of its first token so a
   later qualification error can point at the right place. *)
type proj_item = { p_pos : int; p_first : string; p_second : string option }

let parse_join p ~left items =
  let rpos = pos p in
  let right = expect_ident p in
  if right = left then error rpos "self-join: the two sides of a JOIN must be distinct tables";
  expect_keyword p "ON";
  let a = qualified_ref ~jleft:left ~jright:right p in
  expect p Eq "'='";
  let bpos = pos p in
  let b = qualified_ref ~jleft:left ~jright:right p in
  if a.q_table = b.q_table then
    error bpos "ON must relate %S and %S, not %S on both sides" left right a.q_table;
  let j_on_left, j_on_right = if a.q_table = left then (a, b) else (b, a) in
  let j_projection =
    match items with
    | `Star -> `Star
    | `Items its ->
        `Columns
          (List.map
             (fun it ->
               match it.p_second with
               | Some c ->
                   if it.p_first <> left && it.p_first <> right then
                     error it.p_pos
                       "unknown table %S in qualified reference (this join reads %S and %S)"
                       it.p_first left right;
                   { q_table = it.p_first; q_column = c }
               | None ->
                   error it.p_pos "column %S must be qualified as table.column inside a JOIN"
                     it.p_first)
             its)
  in
  let col p = qualified_name (qualified_ref ~jleft:left ~jright:right p) in
  let j_where = if accept_keyword p "WHERE" then parse_or ~col p else Predicate.True in
  let j_limit = parse_limit p in
  Select_join { j_projection; j_left = left; j_right = right; j_on_left; j_on_right; j_where; j_limit }

let parse_select p =
  expect_keyword p "SELECT";
  let items =
    if peek p = Star then begin
      advance p;
      `Star
    end
    else begin
      let item () =
        let p_pos = pos p in
        let a = expect_ident p in
        if peek p = Dot then begin
          advance p;
          { p_pos; p_first = a; p_second = Some (expect_ident p) }
        end
        else { p_pos; p_first = a; p_second = None }
      in
      let acc = ref [ item () ] in
      while peek p = Comma do
        advance p;
        acc := item () :: !acc
      done;
      `Items (List.rev !acc)
    end
  in
  expect_keyword p "FROM";
  let table = expect_ident p in
  if accept_keyword p "JOIN" then parse_join p ~left:table items
  else begin
    let projection =
      match items with
      | `Star -> `Star
      | `Items its ->
          `Columns
            (List.map
               (fun it ->
                 match it.p_second with
                 | None -> it.p_first
                 | Some c ->
                     error it.p_pos "qualified reference %S is only allowed in a JOIN query"
                       (it.p_first ^ "." ^ c))
               its)
    in
    let where = if accept_keyword p "WHERE" then parse_or ~col:bare_column p else Predicate.True in
    let limit = parse_limit p in
    Select { projection; table; where; limit }
  end

let parse_insert p =
  expect_keyword p "INSERT";
  expect_keyword p "INTO";
  let table = expect_ident p in
  expect_keyword p "VALUES";
  expect p Lparen "'('";
  let vs = ref [ parse_literal p ] in
  while peek p = Comma do
    advance p;
    vs := parse_literal p :: !vs
  done;
  expect p Rparen "')'";
  Insert { table; values = List.rev !vs }

let parse_create p =
  expect_keyword p "CREATE";
  expect_keyword p "TABLE";
  let table = expect_ident p in
  expect p Lparen "'('";
  let parse_coldef () =
    let name = expect_ident p in
    let ty =
      match keyword p with
      | Some ("INT" | "INTEGER" | "BIGINT") ->
          advance p;
          Value.TInt
      | Some ("REAL" | "FLOAT" | "DOUBLE") ->
          advance p;
          Value.TReal
      | Some ("TEXT" | "VARCHAR" | "STRING") ->
          advance p;
          Value.TText
      | Some ("BLOB" | "BYTEA") ->
          advance p;
          Value.TBlob
      | _ -> error (pos p) "expected a column type"
    in
    let nullable =
      if accept_keyword p "NOT" then begin
        expect_keyword p "NULL";
        false
      end
      else true
    in
    { Schema.name; ty; nullable }
  in
  let cols = ref [ parse_coldef () ] in
  while peek p = Comma do
    advance p;
    cols := parse_coldef () :: !cols
  done;
  expect p Rparen "')'";
  Create_table { table; columns = List.rev !cols }

let parse_delete p =
  expect_keyword p "DELETE";
  expect_keyword p "FROM";
  let table = expect_ident p in
  let where = if accept_keyword p "WHERE" then parse_or ~col:bare_column p else Predicate.True in
  Delete { table; where }

let parse_update p =
  expect_keyword p "UPDATE";
  let table = expect_ident p in
  expect_keyword p "SET";
  let parse_assignment () =
    let col = expect_ident p in
    expect p Eq "'='";
    (col, parse_literal p)
  in
  let assignments = ref [ parse_assignment () ] in
  while peek p = Comma do
    advance p;
    assignments := parse_assignment () :: !assignments
  done;
  let where = if accept_keyword p "WHERE" then parse_or ~col:bare_column p else Predicate.True in
  Update { table; assignments = List.rev !assignments; where }

let parse_statement p =
  match keyword p with
  | Some "SELECT" -> parse_select p
  | Some "INSERT" -> parse_insert p
  | Some "CREATE" -> parse_create p
  | Some "DELETE" -> parse_delete p
  | Some "UPDATE" -> parse_update p
  | _ -> error (pos p) "expected SELECT, INSERT, CREATE, DELETE or UPDATE"

let run_parser f src =
  match tokenize src with
  | exception Parse_error (m, i) -> Error (Printf.sprintf "%s (at offset %d)" m i)
  | toks -> (
      let p = { toks; cur = 0 } in
      match f p with
      | result ->
          if peek p <> Eof then Error (Printf.sprintf "trailing input at offset %d" (pos p))
          else Ok result
      | exception Parse_error (m, i) -> Error (Printf.sprintf "%s (at offset %d)" m i))

let parse src = run_parser parse_statement src
let parse_predicate src = run_parser (parse_or ~col:bare_column) src

(* ---------------- Printer ---------------- *)

(* An identifier may appear bare only if it lexes as one token and can
   never be mistaken for a keyword; TRUE is quoted too because a bare
   TRUE opens a predicate atom. Everything else gets "…" quoting with
   the "" escape. *)
let plain_ident s =
  s <> ""
  && is_ident_start s.[0]
  && String.for_all is_ident_char s
  && (not (is_reserved s))
  && String.uppercase_ascii s <> "TRUE"

let print_ident buf s =
  if plain_ident s then Buffer.add_string buf s
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end

(* Shortest decimal spelling that parses back to the same float, forced
   into float-literal shape (a '.' or an exponent) so the lexer does not
   read an integral value as an Int_lit. Non-finite reals have no
   literal syntax. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Sql.print: non-finite REAL literal";
  let s15 = Printf.sprintf "%.15g" f in
  let s =
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  in
  if String.contains s '.' || String.contains s 'e' then s else s ^ "."

let print_value_buf buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_string buf "NULL"
  | Value.Int i -> Buffer.add_string buf (Int64.to_string i)
  | Value.Real f -> Buffer.add_string buf (float_repr f)
  | Value.Text s ->
      Buffer.add_char buf '\'';
      String.iter
        (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\''
  | Value.Blob b ->
      Buffer.add_string buf "X'";
      Buffer.add_string buf (Stdx.Bytes_util.to_hex b);
      Buffer.add_char buf '\''

(* The parser folds [a OP b OP c] flat and even folds a parenthesized
   tail ([a OR (b OR c)] re-parses as [Or [a;b;c]]), so right-nested
   same-connective trees are unrepresentable: the printer flattens them
   up front. For predicates already in that canonical shape (which is
   all the parser ever produces), [parse_predicate (print_predicate p)]
   gives back [p] exactly. *)
let rec flatten_or = function
  | Predicate.Or qs -> List.concat_map flatten_or qs
  | q -> [ q ]

let rec flatten_and = function
  | Predicate.And qs -> List.concat_map flatten_and qs
  | q -> [ q ]

(* Precedence levels: 0 = OR may appear bare, 1 = AND, 2 = NOT, higher
   needs parentheses. [pcol] prints a column reference: {!print_ident}
   in single-table statements, the table.column splitter inside a
   JOIN's WHERE clause. *)
let rec print_pred buf ~pcol ~level (pr : Predicate.t) =
  let paren needed body =
    if needed then begin
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')'
    end
    else body ()
  in
  let list sep ~level qs =
    List.iteri
      (fun i q ->
        if i > 0 then Buffer.add_string buf sep;
        print_pred buf ~pcol ~level q)
      qs
  in
  match pr with
  | Predicate.True -> Buffer.add_string buf "TRUE"
  | Predicate.Eq (c, v) ->
      pcol buf c;
      Buffer.add_string buf " = ";
      print_value_buf buf v
  | Predicate.In (c, vs) ->
      if vs = [] then invalid_arg "Sql.print: empty IN list";
      pcol buf c;
      Buffer.add_string buf " IN (";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          print_value_buf buf v)
        vs;
      Buffer.add_char buf ')'
  | Predicate.Range (c, Some lo, Some hi) ->
      pcol buf c;
      Buffer.add_string buf " BETWEEN ";
      print_value_buf buf lo;
      Buffer.add_string buf " AND ";
      print_value_buf buf hi
  | Predicate.Range (c, Some lo, None) ->
      pcol buf c;
      Buffer.add_string buf " >= ";
      print_value_buf buf lo
  | Predicate.Range (c, None, Some hi) ->
      pcol buf c;
      Buffer.add_string buf " <= ";
      print_value_buf buf hi
  | Predicate.Range (_, None, None) -> invalid_arg "Sql.print: unbounded range"
  | Predicate.Not (Predicate.Eq (c, v)) ->
      (* the <> sugar: re-parses to Not (Eq _) *)
      pcol buf c;
      Buffer.add_string buf " <> ";
      print_value_buf buf v
  | Predicate.Not q ->
      paren (level > 2) @@ fun () ->
      Buffer.add_string buf "NOT ";
      print_pred buf ~pcol ~level:3 q
  | Predicate.And qs -> (
      match flatten_and (Predicate.And qs) with
      | [] -> Buffer.add_string buf "TRUE"
      | [ q ] -> print_pred buf ~pcol ~level q
      | qs -> paren (level > 1) @@ fun () -> list " AND " ~level:2 qs)
  | Predicate.Or qs -> (
      match flatten_or (Predicate.Or qs) with
      | [] -> Buffer.add_string buf "NOT TRUE"
      | [ q ] -> print_pred buf ~pcol ~level q
      | qs -> paren (level > 0) @@ fun () -> list " OR " ~level:1 qs)

(* Split a join predicate's "table.column" spelling back into its two
   identifiers. The qualifier is matched against the join's two table
   names, longest first, so a table name that itself contains a dot
   still splits unambiguously; a column string qualified by neither
   table is unprintable (the parser can never produce one). *)
let join_pcol ~jleft ~jright buf c =
  let split name =
    let pl = String.length name and cl = String.length c in
    if cl >= pl + 1 && String.sub c 0 pl = name && c.[pl] = '.' then
      Some (name, String.sub c (pl + 1) (cl - pl - 1))
    else None
  in
  let longer_first =
    if String.length jleft >= String.length jright then [ jleft; jright ] else [ jright; jleft ]
  in
  match List.find_map split longer_first with
  | Some (t, col) ->
      print_ident buf t;
      Buffer.add_char buf '.';
      print_ident buf col
  | None ->
      invalid_arg
        (Printf.sprintf "Sql.print: JOIN predicate column %S is qualified by neither table" c)

let with_buf f =
  let buf = Buffer.create 128 in
  f buf;
  Buffer.contents buf

let print_value v = with_buf (fun buf -> print_value_buf buf v)
let print_predicate p = with_buf (fun buf -> print_pred buf ~pcol:print_ident ~level:0 p)

let print_statement (st : statement) =
  with_buf @@ fun buf ->
  let where w =
    match w with
    | Predicate.True -> ()
    | _ ->
        Buffer.add_string buf " WHERE ";
        print_pred buf ~pcol:print_ident ~level:0 w
  in
  match st with
  | Select s ->
      Buffer.add_string buf "SELECT ";
      (match s.projection with
      | `Star -> Buffer.add_char buf '*'
      | `Columns cols ->
          List.iteri
            (fun i c ->
              if i > 0 then Buffer.add_string buf ", ";
              print_ident buf c)
            cols);
      Buffer.add_string buf " FROM ";
      print_ident buf s.table;
      where s.where;
      (match s.limit with
      | None -> ()
      | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n))
  | Select_join j ->
      let pq q =
        print_ident buf q.q_table;
        Buffer.add_char buf '.';
        print_ident buf q.q_column
      in
      Buffer.add_string buf "SELECT ";
      (match j.j_projection with
      | `Star -> Buffer.add_char buf '*'
      | `Columns cols ->
          List.iteri
            (fun i q ->
              if i > 0 then Buffer.add_string buf ", ";
              pq q)
            cols);
      Buffer.add_string buf " FROM ";
      print_ident buf j.j_left;
      Buffer.add_string buf " JOIN ";
      print_ident buf j.j_right;
      Buffer.add_string buf " ON ";
      pq j.j_on_left;
      Buffer.add_string buf " = ";
      pq j.j_on_right;
      (match j.j_where with
      | Predicate.True -> ()
      | w ->
          Buffer.add_string buf " WHERE ";
          print_pred buf ~pcol:(join_pcol ~jleft:j.j_left ~jright:j.j_right) ~level:0 w);
      (match j.j_limit with
      | None -> ()
      | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n))
  | Insert { table; values } ->
      Buffer.add_string buf "INSERT INTO ";
      print_ident buf table;
      Buffer.add_string buf " VALUES (";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          print_value_buf buf v)
        values;
      Buffer.add_char buf ')'
  | Create_table { table; columns } ->
      Buffer.add_string buf "CREATE TABLE ";
      print_ident buf table;
      Buffer.add_string buf " (";
      List.iteri
        (fun i (c : Schema.column) ->
          if i > 0 then Buffer.add_string buf ", ";
          print_ident buf c.name;
          Buffer.add_string buf
            (match c.ty with
            | Value.TInt -> " INT"
            | Value.TReal -> " REAL"
            | Value.TText -> " TEXT"
            | Value.TBlob -> " BLOB");
          if not c.nullable then Buffer.add_string buf " NOT NULL")
        columns;
      Buffer.add_char buf ')'
  | Delete { table; where = w } ->
      Buffer.add_string buf "DELETE FROM ";
      print_ident buf table;
      where w
  | Update { table; assignments; where = w } ->
      Buffer.add_string buf "UPDATE ";
      print_ident buf table;
      Buffer.add_string buf " SET ";
      List.iteri
        (fun i (c, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          print_ident buf c;
          Buffer.add_string buf " = ";
          print_value_buf buf v)
        assignments;
      where w

(* ---------------- Execution ---------------- *)

type query_result = {
  columns : string list;
  rows : Value.t array list;
  affected : int;
  exec : Executor.result option;
  join_exec : Join.result option;
}

let empty_result ?(affected = 0) () =
  { columns = []; rows = []; affected; exec = None; join_exec = None }

let take limit l =
  match limit with
  | None -> l
  | Some n -> List.filteri (fun i _ -> i < n) l

(* The combined row space of a join: every left column as
   "left.column", then every right column as "right.column". Distinct
   table names keep the qualified names distinct for any sane schema;
   the pathological collision (one table name a dotted extension of
   the other) surfaces as [Schema.create]'s duplicate-name error. *)
let qualify_columns name (sch : Schema.t) =
  List.map
    (fun (c : Schema.column) -> { c with Schema.name = name ^ "." ^ c.name })
    (Array.to_list (Schema.columns sch))

let join_schema (j : join) lsch rsch =
  match Schema.create (qualify_columns j.j_left lsch @ qualify_columns j.j_right rsch) with
  | sch -> Ok sch
  | exception Invalid_argument e -> Error e

let join_projection (j : join) combined =
  match j.j_projection with
  | `Star ->
      Ok (List.map (fun (c : Schema.column) -> c.name) (Array.to_list (Schema.columns combined)))
  | `Columns qs ->
      let names = List.map qualified_name qs in
      let missing = List.filter (fun c -> Schema.column_index_opt combined c = None) names in
      if missing = [] then Ok names
      else Error (Printf.sprintf "no such column %S" (List.hd missing))

(* Plaintext reference execution of a join: freeze both tables in one
   epoch-consistent step, hash-join on value equality, then filter the
   combined rows by WHERE and apply projection + LIMIT. The oracle the
   encrypted path is differenced against. *)
let execute_join db (j : join) =
  match (Database.table_opt db j.j_left, Database.table_opt db j.j_right) with
  | None, _ -> Error (Printf.sprintf "no such table %S" j.j_left)
  | _, None -> Error (Printf.sprintf "no such table %S" j.j_right)
  | Some tl, Some tr -> (
      let lsch = Table.schema tl and rsch = Table.schema tr in
      if Schema.column_index_opt lsch j.j_on_left.q_column = None then
        Error (Printf.sprintf "no such column %S in table %S" j.j_on_left.q_column j.j_left)
      else if Schema.column_index_opt rsch j.j_on_right.q_column = None then
        Error (Printf.sprintf "no such column %S in table %S" j.j_on_right.q_column j.j_right)
      else
        match join_schema j lsch rsch with
        | Error e -> Error e
        | Ok combined -> (
            match join_projection j combined with
            | Error e -> Error e
            | Ok columns -> (
                match Predicate.compile combined j.j_where with
                | exception Not_found -> Error "predicate references an unknown column"
                | eval ->
                    let lv, rv = Option.get (Database.freeze_pair db j.j_left j.j_right) in
                    let jr =
                      Executor.run_join ~left:lv ~right:rv ~on_left:j.j_on_left.q_column
                        ~on_right:j.j_on_right.q_column Join.Equi
                    in
                    let idxs = List.map (Schema.column_index combined) columns in
                    let rows =
                      take j.j_limit
                        (List.filter_map
                           (fun (l, r) ->
                             let row =
                               Array.append (Read_view.read_row lv l) (Read_view.read_row rv r)
                             in
                             if eval row then
                               Some (Array.of_list (List.map (fun i -> row.(i)) idxs))
                             else None)
                           (Array.to_list jr.Join.pairs))
                    in
                    Ok { columns; rows; affected = 0; exec = None; join_exec = Some jr })))

let execute db src =
  match parse src with
  | Error e -> Error e
  | Ok (Select_join j) -> execute_join db j
  | Ok (Select s) -> (
      match Database.table_opt db s.table with
      | None -> Error (Printf.sprintf "no such table %S" s.table)
      | Some table -> (
          let schema = Table.schema table in
          let project =
            match s.projection with
            | `Star -> Ok (List.map (fun (c : Schema.column) -> c.name) (Array.to_list (Schema.columns schema)))
            | `Columns cols ->
                let missing = List.filter (fun c -> Schema.column_index_opt schema c = None) cols in
                if missing = [] then Ok cols
                else Error (Printf.sprintf "no such column %S" (List.hd missing))
          in
          match project with
          | Error e -> Error e
          | Ok columns -> (
              match Executor.run_view (Table.freeze table) ~projection:Executor.All_columns s.where with
              | exception Not_found -> Error "predicate references an unknown column"
              | exec ->
                  let idxs = List.map (Schema.column_index schema) columns in
                  let rows =
                    take s.limit
                      (List.map
                         (fun row -> Array.of_list (List.map (fun i -> row.(i)) idxs))
                         (Array.to_list exec.rows))
                  in
                  Ok { columns; rows; affected = 0; exec = Some exec; join_exec = None })))
  | Ok (Insert { table; values }) -> (
      match Database.table_opt db table with
      | None -> Error (Printf.sprintf "no such table %S" table)
      | Some t -> (
          match Table.insert t (Array.of_list values) with
          | _id -> Ok (empty_result ~affected:1 ())
          | exception Invalid_argument e -> Error e))
  | Ok (Create_table { table; columns }) -> (
      match Schema.create columns with
      | schema -> (
          match Database.create_table db ~name:table ~schema with
          | _t -> Ok (empty_result ())
          | exception Invalid_argument e -> Error e)
      | exception Invalid_argument e -> Error e)
  | Ok (Delete { table; where }) -> (
      match Database.table_opt db table with
      | None -> Error (Printf.sprintf "no such table %S" table)
      | Some t -> (
          match Executor.run_view (Table.freeze t) ~projection:Executor.Row_ids where with
          | exception Not_found -> Error "predicate references an unknown column"
          | r ->
              let n =
                Array.fold_left (fun acc id -> if Table.delete t id then acc + 1 else acc) 0 r.row_ids
              in
              Ok (empty_result ~affected:n ())))
  | Ok (Update { table; assignments; where }) -> (
      match Database.table_opt db table with
      | None -> Error (Printf.sprintf "no such table %S" table)
      | Some t -> (
          let schema = Table.schema t in
          match List.map (fun (c, v) -> (Schema.column_index schema c, v)) assignments with
          | exception Not_found -> Error "SET references an unknown column"
          | positions -> (
              let view = Table.freeze t in
              match Executor.run_view view ~projection:Executor.Row_ids where with
              | exception Not_found -> Error "predicate references an unknown column"
              | r -> (
                  match
                    Array.iter
                      (fun id ->
                        let row = Array.copy (Read_view.peek_row view id) in
                        List.iter (fun (i, v) -> row.(i) <- v) positions;
                        ignore (Table.update t id row))
                      r.row_ids
                  with
                  | () -> Ok (empty_result ~affected:(Array.length r.row_ids) ())
                  | exception Invalid_argument e -> Error e))))
