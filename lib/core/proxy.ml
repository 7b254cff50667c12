(* lint: guarded-by construction (the registry is filled in create_multi, read-only afterwards) *)
open Sqldb

(* Multi-table registry: one encrypted table per plaintext logical
   name. Every statement resolves its table names exactly, as the
   plaintext engine does: an unknown name is "no such encrypted
   table". *)
type t = (string, Encrypted_db.t) Hashtbl.t

let table_name edb = Table.name (Encrypted_db.table edb)

let create_multi = function
  | [] -> invalid_arg "Proxy.create_multi: at least one encrypted table required"
  | es ->
      let by_name = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let n = table_name e in
          if Hashtbl.mem by_name n then
            invalid_arg (Printf.sprintf "Proxy.create_multi: duplicate table %S" n);
          Hashtbl.replace by_name n e)
        es;
      by_name

let create edb = create_multi [ edb ]

let edb_for t name = Hashtbl.find_opt t name

type rewritten = {
  server_sql : string;
  server_predicate : Predicate.t;
  residual : Predicate.t;
}

type query_result = {
  columns : string list;
  rows : Value.t array list;
  affected : int;
  server_rows : int;
  exec : Executor.result option;
  join_exec : Join.result option;
}

(* Statement mix plus the per-phase latency breakdown of the full
   round-trip (parse -> rewrite -> server exec -> decrypt -> residual
   filter). The proxy is the only read path, so it alone feeds the
   query.* histograms. *)
let m_select = Obs.Metrics.counter "proxy.select_total"
let m_join = Obs.Metrics.counter "proxy.join_total"
let m_insert = Obs.Metrics.counter "proxy.insert_total"
let m_update = Obs.Metrics.counter "proxy.update_total"
let m_delete = Obs.Metrics.counter "proxy.delete_total"
let m_full_scan = Obs.Metrics.counter "proxy.full_scan_total"
let m_edge_fp = Obs.Metrics.counter "range.edge_fp_rows_total"
let m_pairs_verified = Obs.Metrics.counter "join.pairs_verified_total"
let h_parse = Obs.Metrics.histogram "query.parse_ns"
let h_rewrite = Obs.Metrics.histogram "query.rewrite_ns"
let h_exec = Obs.Metrics.histogram "query.exec_ns"
let h_decrypt = Obs.Metrics.histogram "query.decrypt_ns"
let h_filter = Obs.Metrics.histogram "query.filter_ns"

let phase h name f = Obs.Metrics.time h (fun () -> Obs.Trace.with_span name f)

(* Compact nested True/And noise for readable server SQL. *)
let rec simplify = function
  | Predicate.And ps ->
      let ps = List.filter (fun p -> p <> Predicate.True) (List.map simplify ps) in
      (match ps with [] -> Predicate.True | [ p ] -> p | ps -> Predicate.And ps)
  | Predicate.Or ps -> Predicate.Or (List.map simplify ps)
  | Predicate.Not p -> Predicate.Not (simplify p)
  | p -> p

(* Split a plaintext predicate into (server part, residual part).
   AND distributes leg by leg. OR is server-checkable only when every
   leg is: the server then evaluates the union of the per-leg rewrites
   — a superset of the true answer, since each rewrite is itself a
   superset of its leg — and the residual keeps the *original*
   disjunction, which filters both bucketized false positives and the
   union's over-approximation exactly. A single unservable leg poisons
   the whole OR (the server cannot under-approximate a union), so the
   disjunction falls back to a full scan. A leaf is server-checkable
   when it is:
   - Eq/In on an encrypted (searchable) column -> rewritten to tags;
   - Eq/In/Range on the plaintext key column -> passed through;
   - Range/Eq on a range-indexed column -> rewritten to its cover leg
     (rtag IN the canonical-cover roots), at conjunctive position and
     under OR alike. *)
let rec split edb key_column = function
  | Predicate.True -> Ok (Predicate.True, Predicate.True)
  | Predicate.And ps ->
      let rec go acc_server acc_res = function
        | [] -> Ok (Predicate.And (List.rev acc_server), Predicate.And (List.rev acc_res))
        | p :: rest -> (
            match split edb key_column p with
            | Error e -> Error e
            | Ok (s, r) -> go (s :: acc_server) (r :: acc_res) rest)
      in
      go [] [] ps
  | Predicate.Or legs as p ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | leg :: rest -> (
            match split edb key_column leg with
            | Error e -> Error e
            | Ok (s, _) -> go (simplify s :: acc) rest)
      in
      Result.map
        (fun servers ->
          if List.for_all (fun s -> s <> Predicate.True) servers then
            (Predicate.Or servers, p)
          else (Predicate.True, p))
        (go [] legs)
  | Predicate.Eq (col, Value.Text v) when List.mem col (Encrypted_db.encrypted_columns edb) ->
      Ok (Encrypted_db.search_predicate edb ~column:col v, Predicate.Eq (col, Value.Text v))
  | Predicate.In (col, vs) when List.mem col (Encrypted_db.encrypted_columns edb) ->
      (* OR of per-value tag lists; each value may be a Text. *)
      let rec tags acc = function
        | [] -> Ok (List.concat (List.rev acc))
        | Value.Text v :: rest -> (
            match Encrypted_db.search_predicate edb ~column:col v with
            | Predicate.In (_, ts) -> tags (ts :: acc) rest
            | _ -> Error "unexpected rewrite shape")
        | _ -> Error (Printf.sprintf "IN-list on encrypted column %S must hold strings" col)
      in
      Result.map
        (fun ts -> (Predicate.In (Encrypted_db.tag_column col, ts), Predicate.In (col, vs)))
        (tags [] vs)
  | Predicate.Eq (col, _) when List.mem col (Encrypted_db.encrypted_columns edb) ->
      Error (Printf.sprintf "encrypted column %S only supports string equality" col)
  | (Predicate.Eq (col, _) | Predicate.In (col, _) | Predicate.Range (col, _, _)) as p
    when col = key_column ->
      Ok (p, Predicate.True)
  | Predicate.Range (col, lo, hi) as p
    when List.mem col (Encrypted_db.range_columns edb) -> (
      (* Range rewrite: the cover roots server-side (the server expands
         them to the overlapped buckets), the true range client-side. *)
      let bound = function
        | None -> Ok None
        | Some (Value.Int x) -> Ok (Some x)
        | Some _ -> Error (Printf.sprintf "range column %S takes integer bounds" col)
      in
      match (bound lo, bound hi) with
      | Ok lo', Ok hi' -> Ok (Encrypted_db.range_predicate edb ~column:col ~lo:lo' ~hi:hi', p)
      | Error e, _ | _, Error e -> Error e)
  | Predicate.Eq (col, Value.Int x) when List.mem col (Encrypted_db.range_columns edb) ->
      (* Point query on a range column = one-bucket range. *)
      Ok
        ( Encrypted_db.range_predicate edb ~column:col ~lo:(Some x) ~hi:(Some x),
          Predicate.Eq (col, Value.Int x) )
  | p ->
      (* Not server-checkable: full client-side filter. The server leg
         is True (no restriction). *)
      Ok (Predicate.True, p)

(* Trace labels must not carry plaintext predicates (lint R7): scrub
   to a shape+digest fingerprint — enough to correlate repeated
   predicates across spans, nothing for a snapshot reader to read. *)
let scrub_label s =
  Printf.sprintf "len=%d digest=%s" (String.length s)
    (String.sub (Crypto.Sha256.digest_hex s) 0 12)

(* The server predicate degenerated to True while real filtering
   remains: the server ships the whole table and the proxy filters it —
   the silent-degradation mode that used to swallow rewritable ORs.
   Surface it so workloads can see they lost index service. *)
let note_full_scan server residual =
  if server = Predicate.True && residual <> Predicate.True then begin
    Obs.Metrics.incr m_full_scan;
    if Obs.Trace.is_enabled () then
      Obs.Trace.event "proxy.full_scan"
        ~attrs:[ ("residual", scrub_label (Format.asprintf "%a" Predicate.pp residual)) ]
  end

(* Split + simplify + full-scan accounting, timed as the rewrite phase. *)
let rewrite edb where =
  phase h_rewrite "proxy.rewrite" @@ fun () ->
  match split edb (Encrypted_db.key_column edb) where with
  | Error e -> Error e
  | Ok (server, residual) ->
      let server = simplify server and residual = simplify residual in
      note_full_scan server residual;
      Ok (server, residual)

let rewrite_select t (s : Sql.select) =
  match edb_for t s.table with
  | None -> Error (Printf.sprintf "no such encrypted table %S" s.table)
  | Some edb -> (
      match rewrite edb s.where with
      | Error e -> Error e
      | Ok (server, residual) ->
          let server_sql =
            Format.asprintf "SELECT * FROM %s WHERE %a" s.table Predicate.pp server
          in
          Ok { server_sql; server_predicate = server; residual })

(* Shared SELECT/DELETE/UPDATE back half: decrypt the server's answer
   lazily and keep rows passing the residual predicate, stopping after
   [limit] survivors. Decryption and filtering interleave in one pass
   — a LIMIT n query never decrypts more than it needs beyond the rows
   the residual rejects — so the two phases are accounted by summed
   per-row clock deltas and recorded as pre-measured trace spans. *)
let decrypt_filter_limit ?mask edb eval ?limit (exec : Executor.result) =
  let start_ns = Stdx.Clock.now_ns () in
  let wanted = match limit with None -> max_int | Some n -> n in
  let kept = ref [] and n_kept = ref 0 in
  let decrypt_ns = ref 0.0 and filter_ns = ref 0.0 in
  let n = Array.length exec.rows in
  let i = ref 0 in
  while !i < n && !n_kept < wanted do
    let t0 = Stdx.Clock.now_ns () in
    let plain = Encrypted_db.decrypt_row ?mask edb exec.rows.(!i) in
    let t1 = Stdx.Clock.now_ns () in
    let keep = eval plain in
    decrypt_ns := !decrypt_ns +. (t1 -. t0);
    filter_ns := !filter_ns +. (Stdx.Clock.now_ns () -. t1);
    if keep then begin
      kept := (exec.row_ids.(!i), plain) :: !kept;
      incr n_kept
    end;
    incr i
  done;
  Obs.Metrics.observe h_decrypt !decrypt_ns;
  Obs.Metrics.observe h_filter !filter_ns;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.add ~name:"proxy.decrypt"
      ~attrs:[ ("rows_decrypted", string_of_int !i) ]
      ~start_ns ~dur_ns:!decrypt_ns ();
    Obs.Trace.add ~name:"proxy.residual_filter"
      ~attrs:[ ("kept", string_of_int !n_kept) ]
      ~start_ns:(start_ns +. !decrypt_ns) ~dur_ns:!filter_ns ()
  end;
  List.rev !kept

(* The range leg at conjunctive position — a bare Range (or point-Eq)
   leg with integer bounds, or such a leg of a top-level AND — the one
   whose edge-bucket false positives the residual pass counts and whose
   cover {!range_cover_for} reports. *)
let rec conjunctive_range_leg edb = function
  | Predicate.Range (col, lo, hi) when List.mem col (Encrypted_db.range_columns edb) -> (
      let bound = function
        | None -> Some None
        | Some (Value.Int x) -> Some (Some x)
        | Some _ -> None
      in
      match (bound lo, bound hi) with
      | Some lo', Some hi' -> Some (col, lo', hi')
      | _ -> None)
  | Predicate.Eq (col, Value.Int x) when List.mem col (Encrypted_db.range_columns edb) ->
      Some (col, Some x, Some x)
  | Predicate.And ps -> List.find_map (conjunctive_range_leg edb) ps
  | _ -> None

(* The plain columns a statement reads, as a [decrypt_row] mask:
   [None] (every column) for [`Star] — SELECT * and UPDATE, which
   re-encrypts whole rows — else the named columns plus those the
   residual filter reads (every range leg stays in the residual, so
   edge-bucket accounting needs no column of its own). The named
   columns are checked first, so an unknown projected column fails
   before the executor runs. *)
let read_mask plain_schema ~reads ~residual =
  match reads with
  | `Star -> Ok None
  | `Columns cols -> (
      let mask = Array.make (Schema.arity plain_schema) false in
      let set c = mask.(Schema.column_index plain_schema c) <- true in
      match List.iter set cols with
      | exception Not_found -> Error "projected column does not exist"
      | () ->
          List.iter set (Predicate.columns residual);
          Ok (Some mask))

(* Shared SELECT/DELETE/UPDATE front half: run the rewritten server
   query over a frozen view, fetching only the cells the columns in
   [reads] (see {!read_mask}) decrypt from, then decrypt them and apply
   the residual predicate; returns surviving (row_id, plaintext_row)
   pairs plus the raw executor result. The residual and the mask are
   checked before the executor runs, so a statement naming an unknown
   column fails without touching the table. The view is the caller's
   when it snapshots this table (multi-table batches freeze one table's
   epoch up front), else one frozen here — consistent for DELETE and
   UPDATE too, because mutations are caller-serialized (the server
   admission queue single-threads writes).

   Range legs ship their cover roots wherever they sit; the executor
   expands them over the table's boundary tree. For the range leg at
   conjunctive position the residual pass counts edge-bucket false
   positives into [range.edge_fp_rows_total]. *)
let fetch_matching ?view edb ?limit ~reads where =
  match rewrite edb where with
  | Error e -> Error e
  | Ok (server, residual) -> (
      let plain_schema = Encrypted_db.plain_schema edb in
      match Predicate.compile plain_schema residual with
      | exception Not_found -> Error "residual predicate references an unknown column"
      | eval -> (
          match read_mask plain_schema ~reads ~residual with
          | Error e -> Error e
          | Ok mask -> (
              let projection = Executor.Columns (Encrypted_db.fetch_positions ?mask edb) in
              match
                phase h_exec "proxy.server_exec" (fun () ->
                    let v =
                      match view with
                      | Some v when Read_view.name v = table_name edb -> v
                      | Some _ | None -> Encrypted_db.freeze edb
                    in
                    Executor.run_view v ~projection server)
              with
              | exception Not_found -> Error "predicate references an unknown column"
              | exec ->
                  let eval =
                    match conjunctive_range_leg edb where with
                    | None -> eval
                    | Some (col, lo, hi) ->
                        (* Edge-bucket false-positive accounting, fused
                           into the lazy residual pass: a decrypted row
                           outside the true range came from an edge
                           bucket. *)
                        let wrap v = Option.map (fun x -> Value.Int x) v in
                        let in_range =
                          Predicate.compile plain_schema (Predicate.Range (col, wrap lo, wrap hi))
                        in
                        fun row ->
                          if not (in_range row) then Obs.Metrics.incr m_edge_fp;
                          eval row
                  in
                  Ok (decrypt_filter_limit ?mask edb eval ?limit exec, exec))))

(* The cover the statement's range leg at conjunctive position ships —
   (column, root pseudonyms) — for tests and the leakage experiment's
   transcript capture. *)
let range_cover_for t ~table where =
  match edb_for t table with
  | None -> None
  | Some edb -> (
      match conjunctive_range_leg edb where with
      | None -> None
      | Some (col, lo, hi) ->
          let cover = Encrypted_db.range_cover edb ~column:col ~lo ~hi in
          Some (col, cover.Range_struct.roots))

(* Project surviving plaintext rows per the SELECT's projection list
   (already validated by {!read_mask}). *)
let select_result edb (s : Sql.select) pairs (exec : Executor.result) =
  let plain_schema = Encrypted_db.plain_schema edb in
  let limited = List.map snd pairs in
  let columns, rows =
    match s.projection with
    | `Star ->
        ( List.map
            (fun (c : Schema.column) -> c.name)
            (Array.to_list (Schema.columns plain_schema)),
          limited )
    | `Columns cols ->
        let idxs = List.map (Schema.column_index plain_schema) cols in
        (cols, List.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) idxs)) limited)
  in
  {
    columns;
    rows;
    affected = 0;
    server_rows = Array.length exec.rows;
    exec = Some exec;
    join_exec = None;
  }

(* ---------------- Encrypted equi-joins ---------------- *)

(* Resolve both sides of a join and require the ON columns to be
   searchable encrypted columns: the tag-bucket join only exists over
   WRE search tags. *)
let resolve_join t (j : Sql.join) =
  match (edb_for t j.Sql.j_left, edb_for t j.Sql.j_right) with
  | None, _ -> Error (Printf.sprintf "no such encrypted table %S" j.Sql.j_left)
  | _, None -> Error (Printf.sprintf "no such encrypted table %S" j.Sql.j_right)
  | Some el, Some er ->
      let cl = j.Sql.j_on_left.Sql.q_column and cr = j.Sql.j_on_right.Sql.q_column in
      if not (List.mem cl (Encrypted_db.encrypted_columns el)) then
        Error
          (Printf.sprintf "join column %S is not a searchable encrypted column of %S" cl
             j.Sql.j_left)
      else if not (List.mem cr (Encrypted_db.encrypted_columns er)) then
        Error
          (Printf.sprintf "join column %S is not a searchable encrypted column of %S" cr
             j.Sql.j_right)
      else Ok (el, er)

(* One bucket per plaintext in both sides' profiled supports: the salt
   tag sets either side's rows may carry for that plaintext. Bucket
   order is the left support's canonical (descending-probability)
   order — deterministic, and what the leakage experiment keys on. *)
let join_buckets el col_l er col_r =
  let sup_l = Encrypted_db.support el ~column:col_l in
  let sup_r = Encrypted_db.support er ~column:col_r in
  let rset = Hashtbl.create (Array.length sup_r) in
  Array.iter (fun m -> Hashtbl.replace rset m ()) sup_r;
  Array.of_list
    (List.filter_map
       (fun m ->
         if Hashtbl.mem rset m then
           Some
             ( m,
               List.map (fun x -> Value.Int x) (Encrypted_db.tags_for el ~column:col_l m),
               List.map (fun x -> Value.Int x) (Encrypted_db.tags_for er ~column:col_r m) )
         else None)
       (Array.to_list sup_l))

let rewrite_join t (j : Sql.join) =
  match resolve_join t j with
  | Error e -> Error e
  | Ok (el, er) ->
      Ok (join_buckets el j.Sql.j_on_left.Sql.q_column er j.Sql.j_on_right.Sql.q_column)

(* Plaintext equality for the residual ON verification. TEXT compares
   in constant time: these are decrypted secrets, and the comparison
   outcome alone is what we are allowed to leak. *)
let value_eq (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Text x, Value.Text y -> Stdx.Bytes_util.ct_equal x y
  | _ -> a = b

(* Each side's [decrypt_row] mask: its ON column plus the columns the
   projection and the WHERE read, given as positions in the combined
   row (left's columns, then right's). *)
let join_masks el ~lidx er ~ridx combined_idxs =
  let arity_l = Schema.arity (Encrypted_db.plain_schema el) in
  let mask_l = Array.make arity_l false in
  let mask_r = Array.make (Schema.arity (Encrypted_db.plain_schema er)) false in
  mask_l.(lidx) <- true;
  mask_r.(ridx) <- true;
  List.iter
    (fun k -> if k < arity_l then mask_l.(k) <- true else mask_r.(k - arity_l) <- true)
    combined_idxs;
  (mask_l, mask_r)

(* The encrypted join, end to end. Server side: tag-bucket hash join
   over the two frozen views (candidate pairs are a superset of the
   true join — salt tags collide across plaintexts for bucketized
   schemes, and 64-bit tags can collide for any scheme). Client side:
   fetch and decrypt each distinct row id once (memoized per side, and
   only the columns {!join_masks} names), then
   re-verify every candidate pair on plaintext — ON-column equality
   first, then the WHERE residual over the combined row — stopping at
   LIMIT survivors. Both freezes happen back to back: proxy mutations
   are caller-serialized (the server admission queue single-threads
   writes), so the pair of views is epoch-consistent. *)
let execute_join t (j : Sql.join) =
  Obs.Metrics.incr m_join;
  match resolve_join t j with
  | Error e -> Error e
  | Ok (el, er) -> (
      let col_l = j.Sql.j_on_left.Sql.q_column and col_r = j.Sql.j_on_right.Sql.q_column in
      match
        Sql.join_schema j (Encrypted_db.plain_schema el) (Encrypted_db.plain_schema er)
      with
      | Error e -> Error e
      | Ok combined -> (
          match Sql.join_projection j combined with
          | Error e -> Error e
          | Ok columns -> (
              match Predicate.compile combined j.Sql.j_where with
              | exception Not_found -> Error "predicate references an unknown column"
              | eval ->
                  let buckets =
                    phase h_rewrite "proxy.join_rewrite" (fun () ->
                        join_buckets el col_l er col_r)
                  in
                  let vl = Encrypted_db.freeze el in
                  let vr = Encrypted_db.freeze er in
                  let jr =
                    phase h_exec "proxy.join_server_exec" (fun () ->
                        Executor.run_join ~left:vl ~right:vr
                          ~on_left:(Encrypted_db.tag_column col_l)
                          ~on_right:(Encrypted_db.tag_column col_r)
                          (Join.Buckets (Array.map (fun (_, l, r) -> (l, r)) buckets)))
                  in
                  let lidx = Schema.column_index (Encrypted_db.plain_schema el) col_l in
                  let ridx = Schema.column_index (Encrypted_db.plain_schema er) col_r in
                  let idxs = List.map (Schema.column_index combined) columns in
                  let where_idxs =
                    List.map (Schema.column_index combined) (Predicate.columns j.Sql.j_where)
                  in
                  let mask_l, mask_r = join_masks el ~lidx er ~ridx (idxs @ where_idxs) in
                  let fetch_l = Encrypted_db.fetch_positions ~mask:mask_l el in
                  let fetch_r = Encrypted_db.fetch_positions ~mask:mask_r er in
                  let start_ns = Stdx.Clock.now_ns () in
                  let decrypt_ns = ref 0.0 and filter_ns = ref 0.0 in
                  let cache_l = Hashtbl.create 64 and cache_r = Hashtbl.create 64 in
                  let dec cache view edb mask fetch id =
                    match Hashtbl.find_opt cache id with
                    | Some p -> p
                    | None ->
                        let t0 = Stdx.Clock.now_ns () in
                        let p =
                          Encrypted_db.decrypt_row ~mask edb (Read_view.read_cols view id fetch)
                        in
                        decrypt_ns := !decrypt_ns +. (Stdx.Clock.now_ns () -. t0);
                        Hashtbl.replace cache id p;
                        p
                  in
                  let wanted = match j.Sql.j_limit with None -> max_int | Some n -> n in
                  let kept = ref [] and n_kept = ref 0 and n_verified = ref 0 in
                  let npairs = Array.length jr.Join.pairs in
                  let i = ref 0 in
                  while !i < npairs && !n_kept < wanted do
                    let l, r = jr.Join.pairs.(!i) in
                    let pl = dec cache_l vl el mask_l fetch_l l
                    and pr = dec cache_r vr er mask_r fetch_r r in
                    let t1 = Stdx.Clock.now_ns () in
                    if value_eq pl.(lidx) pr.(ridx) then begin
                      incr n_verified;
                      let row = Array.append pl pr in
                      if eval row then begin
                        kept := Array.of_list (List.map (fun k -> row.(k)) idxs) :: !kept;
                        incr n_kept
                      end
                    end;
                    filter_ns := !filter_ns +. (Stdx.Clock.now_ns () -. t1);
                    incr i
                  done;
                  Obs.Metrics.add m_pairs_verified !n_verified;
                  Obs.Metrics.observe h_decrypt !decrypt_ns;
                  Obs.Metrics.observe h_filter !filter_ns;
                  if Obs.Trace.is_enabled () then begin
                    Obs.Trace.add ~name:"proxy.decrypt"
                      ~attrs:
                        [
                          ( "rows_decrypted",
                            string_of_int (Hashtbl.length cache_l + Hashtbl.length cache_r) );
                        ]
                      ~start_ns ~dur_ns:!decrypt_ns ();
                    Obs.Trace.add ~name:"proxy.join_verify"
                      ~attrs:
                        [
                          ("pairs_candidate", string_of_int npairs);
                          ("pairs_verified", string_of_int !n_verified);
                          ("kept", string_of_int !n_kept);
                        ]
                      ~start_ns:(start_ns +. !decrypt_ns) ~dur_ns:!filter_ns ()
                  end;
                  Ok
                    {
                      columns;
                      rows = List.rev !kept;
                      affected = 0;
                      server_rows = npairs;
                      exec = None;
                      join_exec = Some jr;
                    })))

(* SELECTs may use [view]; DELETE and UPDATE find their rows through a
   fresh freeze. *)
let execute_stmt ?view t stmt =
  match stmt with
  | Sql.Create_table _ -> Error "the proxy does not rewrite CREATE TABLE"
  | Sql.Select_join j -> execute_join t j
  | Sql.Delete { table; where } -> (
      Obs.Metrics.incr m_delete;
      match edb_for t table with
      | None -> Error (Printf.sprintf "no such encrypted table %S" table)
      | Some edb -> (
          match fetch_matching edb ~reads:(`Columns []) where with
          | Error e -> Error e
          | Ok (pairs, exec) ->
              let n, _ =
                Table.apply (Encrypted_db.table edb)
                  ~delete:(Array.of_list (List.map fst pairs))
                  ~insert:[||]
              in
              Ok
                {
                  columns = [];
                  rows = [];
                  affected = n;
                  server_rows = Array.length exec.row_ids;
                  exec = Some exec;
                  join_exec = None;
                }))
  | Sql.Update { table; assignments; where } -> (
      Obs.Metrics.incr m_update;
      match edb_for t table with
      | None -> Error (Printf.sprintf "no such encrypted table %S" table)
      | Some edb -> (
          let plain_schema = Encrypted_db.plain_schema edb in
          match List.map (fun (c, v) -> (Schema.column_index plain_schema c, v)) assignments with
          | exception Not_found -> Error "SET references an unknown column"
          | positions -> (
              match fetch_matching edb ~reads:`Star where with
              | Error e -> Error e
              | Ok (pairs, exec) -> (
                  (* Encrypt every replacement first, so a row outside the
                     profiled distribution (or any schema error) fails the
                     statement before anything changes; then tombstone the
                     old versions and insert the new ones as one write. *)
                  match
                    Array.of_list
                      (List.map
                         (fun (_, plain) ->
                           let row = Array.copy plain in
                           List.iter (fun (i, v) -> row.(i) <- v) positions;
                           Encrypted_db.encrypt_plain_row edb row)
                         pairs)
                  with
                  | staged ->
                      ignore
                        (Table.apply (Encrypted_db.table edb)
                           ~delete:(Array.of_list (List.map fst pairs))
                           ~insert:staged
                          : int * int);
                      Ok
                        {
                          columns = [];
                          rows = [];
                          affected = Array.length staged;
                          server_rows = Array.length exec.row_ids;
                          exec = Some exec;
                          join_exec = None;
                        }
                  | exception Invalid_argument e -> Error e
                  | exception Column_enc.Unknown_plaintext v ->
                      Error (Printf.sprintf "plaintext %S is outside the profiled distribution" v)))))
  | Sql.Insert { table; values } -> (
      Obs.Metrics.incr m_insert;
      match edb_for t table with
      | None -> Error (Printf.sprintf "no such encrypted table %S" table)
      | Some edb -> (
          match Encrypted_db.insert edb (Array.of_list values) with
          | _id ->
              Ok
                {
                  columns = [];
                  rows = [];
                  affected = 1;
                  server_rows = 0;
                  exec = None;
                  join_exec = None;
                }
          | exception Invalid_argument e -> Error e
          | exception Column_enc.Unknown_plaintext v ->
              Error (Printf.sprintf "plaintext %S is outside the profiled distribution" v)))
  | Sql.Select s -> (
      Obs.Metrics.incr m_select;
      match edb_for t s.table with
      | None -> Error (Printf.sprintf "no such encrypted table %S" s.table)
      | Some edb -> (
          match fetch_matching ?view edb ?limit:s.limit ~reads:s.projection s.where with
          | Error e -> Error e
          | Ok (pairs, exec) -> Ok (select_result edb s pairs exec)))

let execute_snapshot ?view t src =
  Obs.Trace.with_span "proxy.execute" @@ fun () ->
  match phase h_parse "proxy.parse" (fun () -> Sql.parse src) with
  | Error e -> Error e
  | Ok stmt -> execute_stmt ?view t stmt

let execute t src = execute_snapshot t src
