(* lint: guarded-by Table.writer (encryptor/key tables immutable on the snapshot-read path) *)
open Sqldb

let tag_column c = c ^ "_tag"
let data_column c = c ^ "_data"
let rtag_column c = c ^ "_rtag"

(* Row-level crypto counters (atomic bumps, nothing allocated per row)
   plus the per-phase latency histograms of the read path. The same
   query.* histograms are fed by the proxy's SELECT path, so one
   registry covers both entry points. *)
let m_rows_encrypted = Obs.Metrics.counter "edb.rows_encrypted_total"
let m_rows_decrypted = Obs.Metrics.counter "edb.rows_decrypted_total"
let m_columns_decrypted = Obs.Metrics.counter "edb.columns_decrypted_total"
let h_rewrite = Obs.Metrics.histogram "query.rewrite_ns"
let h_exec = Obs.Metrics.histogram "query.exec_ns"
let h_decrypt = Obs.Metrics.histogram "query.decrypt_ns"
let h_filter = Obs.Metrics.histogram "query.filter_ns"

(* One query phase: latency histogram + trace span under one name. *)
let phase h name f = Obs.Metrics.time h (fun () -> Obs.Trace.with_span name f)

(* What one plain column becomes in the encrypted table: its
   encrypted-schema positions plus the key material its cells need,
   resolved once at {!create}/{!attach} so the per-row paths look
   nothing up by name. *)
type slot =
  | Key of int
  | Searchable of { tag_pos : int; data_pos : int; enc : Column_enc.t }
  | Ranged of { rtag_pos : int; data_pos : int; key : Crypto.Ctr.key; ri : Range_index.t }
  | Data of { pos : int; key : Crypto.Ctr.key }

type t = {
  table : Table.t;
  plain_schema : Schema.t;
  key_column : string;
  kind : Scheme.kind;
  encrypted_columns : string list;
  encryptors : (string, Column_enc.t) Hashtbl.t;
  g : Stdx.Prng.t;
  range_indexes : (string, Range_index.t) Hashtbl.t;
  range_structs : (string, Range_struct.t) Hashtbl.t;
  enc_schema : Schema.t;
  slots : slot array; (* one per plain column, in plain-schema order *)
}

(* Column validation + encrypted-schema layout, shared by {!create}
   (fresh table) and {!attach} (table restored from a checkpoint).
   [ctx] only flavors error messages. *)
let enc_layout ~ctx ~plain_schema ~key_column ~encrypted_columns ~range_names =
  let key_pos =
    match Schema.column_index_opt plain_schema key_column with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "%s: unknown key column %S" ctx key_column)
  in
  (match (Schema.columns plain_schema).(key_pos).ty with
  | Value.TInt -> ()
  | _ -> invalid_arg (ctx ^ ": key column must be INT"));
  let is_searchable c = List.mem c encrypted_columns in
  List.iter
    (fun c ->
      match Schema.column_index_opt plain_schema c with
      | None -> invalid_arg (Printf.sprintf "%s: unknown column %S" ctx c)
      | Some i ->
          if (Schema.columns plain_schema).(i).ty <> Value.TText then
            invalid_arg (Printf.sprintf "%s: column %S must be TEXT" ctx c))
    encrypted_columns;
  List.iter
    (fun c ->
      match Schema.column_index_opt plain_schema c with
      | None -> invalid_arg (Printf.sprintf "%s: unknown range column %S" ctx c)
      | Some i ->
          if (Schema.columns plain_schema).(i).ty <> Value.TInt then
            invalid_arg (Printf.sprintf "%s: range column %S must be INT" ctx c);
          if is_searchable c || c = key_column then
            invalid_arg (Printf.sprintf "%s: column %S cannot be both" ctx c))
    range_names;
  (* Encrypted schema: key passthrough; every other plain column gets a
     _data blob; searchable columns additionally get a _tag int;
     range-indexed INT columns get a _rtag int (bucket tag). *)
  let plain_cols = Schema.columns plain_schema in
  let enc_cols = ref [] and mapping = Array.make (Array.length plain_cols) (`Key 0) in
  let pos = ref 0 in
  let add col =
    enc_cols := col :: !enc_cols;
    let p = !pos in
    incr pos;
    p
  in
  Array.iteri
    (fun i (col : Schema.column) ->
      if i = key_pos then
        mapping.(i) <- `Key (add { Schema.name = col.name; ty = Value.TInt; nullable = false })
      else if is_searchable col.name then begin
        let tag_pos = add { Schema.name = tag_column col.name; ty = Value.TInt; nullable = false } in
        let data_pos =
          add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }
        in
        mapping.(i) <- `Searchable (tag_pos, data_pos)
      end
      else if List.mem col.name range_names then begin
        let rtag_pos =
          add { Schema.name = col.name ^ "_rtag"; ty = Value.TInt; nullable = false }
        in
        let data_pos =
          add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }
        in
        mapping.(i) <- `Ranged (rtag_pos, data_pos)
      end
      else
        mapping.(i) <-
          `Data (add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }))
    plain_cols;
  (Schema.create (List.rev !enc_cols), mapping)

let build_encryptors ~fallback ?tag_algo ~master ~kind ~dist_of encrypted_columns =
  let encryptors = Hashtbl.create (List.length encrypted_columns) in
  List.iter
    (fun c ->
      Hashtbl.replace encryptors c
        (Column_enc.create ~fallback ?tag_algo ~master ~column:c ~kind ~dist:(dist_of c) ()))
    encrypted_columns;
  encryptors

(* The ESEDS boundary trees are a pure function of (master, column,
   boundaries) — see {!Range_struct} — so both {!create} and {!attach}
   derive them from whatever range indexes they just built and register
   each with the table, which expands query covers over it; no extra
   persistence beyond the checkpointed boundaries. *)
let build_range_structs ~master ~table range_indexes =
  let structs = Hashtbl.create (Hashtbl.length range_indexes) in
  Hashtbl.iter
    (fun c ri ->
      let rs = Range_struct.of_index ~master ~column:c ri in
      Table.set_range_tree table ~column:(rtag_column c) (Range_struct.tree rs);
      Hashtbl.replace structs c rs)
    range_indexes;
  structs

(* The rest of the client state, shared by {!create} and {!attach}:
   encryptors, boundary trees, and each plain column's slot. *)
let make ~fallback ?tag_algo ~table ~plain_schema ~key_column ~encrypted_columns ~kind ~master
    ~dist_of ~g ~range_indexes (enc_schema, mapping) =
  let encryptors = build_encryptors ~fallback ?tag_algo ~master ~kind ~dist_of encrypted_columns in
  let slots =
    Array.mapi
      (fun i m ->
        let column = (Schema.columns plain_schema).(i).name in
        match m with
        | `Key p -> Key p
        | `Searchable (tag_pos, data_pos) ->
            Searchable { tag_pos; data_pos; enc = Hashtbl.find encryptors column }
        | `Ranged (rtag_pos, data_pos) ->
            Ranged
              {
                rtag_pos;
                data_pos;
                key = Crypto.Keys.data_key master ~column;
                ri = Hashtbl.find range_indexes column;
              }
        | `Data pos -> Data { pos; key = Crypto.Keys.data_key master ~column })
      mapping
  in
  {
    table;
    plain_schema;
    key_column;
    kind;
    encrypted_columns;
    encryptors;
    g;
    range_indexes;
    range_structs = build_range_structs ~master ~table range_indexes;
    enc_schema;
    slots;
  }

let create ?(fallback = `Reject) ?tag_algo ?(range_columns = []) ?range_training ~db ~name
    ~plain_schema ~key_column ~encrypted_columns ~kind ~master ~dist_of ~seed () =
  List.iter
    (fun (_, buckets) ->
      if buckets < 1 then invalid_arg "Encrypted_db.create: range buckets must be positive")
    range_columns;
  let layout =
    enc_layout ~ctx:"Encrypted_db.create" ~plain_schema ~key_column ~encrypted_columns
      ~range_names:(List.map fst range_columns)
  in
  let table = Database.create_table db ~name ~schema:(fst layout) in
  ignore (Table.create_index table ~column:key_column);
  List.iter (fun c -> ignore (Table.create_index table ~column:(tag_column c))) encrypted_columns;
  List.iter
    (fun (c, _) -> ignore (Table.create_index table ~column:(c ^ "_rtag")))
    range_columns;
  let range_indexes = Hashtbl.create (List.length range_columns) in
  List.iter
    (fun (c, buckets) ->
      let training =
        match range_training with
        | Some f -> f c
        | None ->
            invalid_arg "Encrypted_db.create: range_columns requires range_training"
      in
      Hashtbl.replace range_indexes c (Range_index.create ~master ~column:c ~buckets ~training))
    range_columns;
  make ~fallback ?tag_algo ~table ~plain_schema ~key_column ~encrypted_columns ~kind ~master
    ~dist_of ~g:(Stdx.Prng.create seed) ~range_indexes layout

let attach ?(fallback = `Reject) ?tag_algo ?(range_boundaries = []) ~table ~plain_schema
    ~key_column ~encrypted_columns ~kind ~master ~dist_of ~prng () =
  let layout =
    enc_layout ~ctx:"Encrypted_db.attach" ~plain_schema ~key_column ~encrypted_columns
      ~range_names:(List.map fst range_boundaries)
  in
  if Schema.columns (Table.schema table) <> Schema.columns (fst layout) then
    invalid_arg
      (Printf.sprintf "Encrypted_db.attach: table %S does not match the derived encrypted schema"
         (Table.name table));
  let range_indexes = Hashtbl.create (List.length range_boundaries) in
  List.iter
    (fun (c, boundaries) ->
      Hashtbl.replace range_indexes c (Range_index.restore ~master ~column:c ~boundaries))
    range_boundaries;
  make ~fallback ?tag_algo ~table ~plain_schema ~key_column ~encrypted_columns ~kind ~master
    ~dist_of ~g:prng ~range_indexes layout

let prng t = t.g

let table t = t.table
let kind t = t.kind
let encrypted_columns t = t.encrypted_columns
let plain_schema t = t.plain_schema
let key_column t = t.key_column

let column_encryptor t c =
  match Hashtbl.find_opt t.encryptors c with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not searchable" c)

let plain_text_of v =
  match v with
  | Value.Text s -> s
  | _ -> invalid_arg "Encrypted_db: searchable column value must be TEXT"

(* Encrypt one plaintext row into encrypted-schema order, drawing weak
   randomness (salt choice, CTR nonces) from [g]. Reads the encryptor
   caches but never writes them when every searchable value has been
   prewarmed — which makes this safe to call from worker domains, one
   PRNG per domain of work. *)
let encrypt_row t g row =
  let out = Array.make (Schema.arity t.enc_schema) Value.Null in
  Array.iteri
    (fun i v ->
      match t.slots.(i) with
      | Key p -> out.(p) <- v
      | Searchable { tag_pos; data_pos; enc } ->
          let tag, ct = Column_enc.encrypt enc g (plain_text_of v) in
          out.(tag_pos) <- Value.Int tag;
          out.(data_pos) <- Value.Blob ct
      | Ranged { rtag_pos; data_pos; key; ri } ->
          let raw =
            match v with
            | Value.Int x -> x
            | v ->
                invalid_arg
                  ("Encrypted_db.insert: range-indexed column must be INT, got "
                  ^ Value.to_string v)
          in
          out.(rtag_pos) <- Value.Int (Range_index.tag_of_value ri raw);
          out.(data_pos) <- Value.Blob (Crypto.Ctr.encrypt_random key g (Value_codec.encode v))
      | Data { pos; key } ->
          out.(pos) <- Value.Blob (Crypto.Ctr.encrypt_random key g (Value_codec.encode v)))
    row;
  Obs.Metrics.incr m_rows_encrypted;
  out

let encrypt_plain_row t row =
  (match Schema.validate_row t.plain_schema row with
  | Ok () -> ()
  | Error e -> invalid_arg ("Encrypted_db.insert: " ^ e));
  encrypt_row t t.g row

let insert t row = Table.insert t.table (encrypt_plain_row t row)

let default_chunk_size = 1024

let insert_batch ?pool ?(chunk_size = default_chunk_size) t rows =
  if chunk_size <= 0 then invalid_arg "Encrypted_db.insert_batch: chunk_size must be positive";
  Array.iteri
    (fun i row ->
      match Schema.validate_row t.plain_schema row with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Encrypted_db.insert_batch: row %d: %s" i e))
    rows;
  (* Pre-warm every searchable column's salt cache with the batch's
     distinct plaintexts, on this domain: salt-set computation (DRBG
     streams, alias tables) runs once per distinct value instead of
     racing per row, and the parallel phase below becomes read-only on
     the encryptors. One pass over the batch collects all columns'
     distinct sets at once — per-column passes re-walk a 10M-row batch
     once per searchable column. *)
  let warm =
    List.map
      (fun c ->
        ( Schema.column_index t.plain_schema c,
          Hashtbl.create 256,
          Hashtbl.find t.encryptors c ))
      t.encrypted_columns
  in
  Array.iter
    (fun row ->
      List.iter
        (fun (pos, distinct, _) ->
          let m = plain_text_of row.(pos) in
          if not (Hashtbl.mem distinct m) then Hashtbl.replace distinct m ())
        warm)
    rows;
  List.iter
    (fun (_, distinct, enc) ->
      Column_enc.prewarm enc (Hashtbl.fold (fun m () acc -> m :: acc) distinct []))
    warm;
  let n = Array.length rows in
  let encrypted =
    match pool with
    | Some pool when Stdx.Task_pool.domains pool > 1 && n > 0 ->
        (* Multi-domain path: one PRNG per chunk, split off the
           database PRNG in chunk order. The output depends only on
           the PRNG state and the chunk size — not on the domain
           count or scheduling — so a load is reproducible for a
           fixed (seed, chunk_size). *)
        let n_chunks = (n + chunk_size - 1) / chunk_size in
        let gs = Array.init n_chunks (fun _ -> Stdx.Prng.split t.g) in
        let chunks =
          Stdx.Task_pool.parallel_init pool n_chunks (fun ci ->
              let g = gs.(ci) in
              let lo = ci * chunk_size in
              let len = min chunk_size (n - lo) in
              Array.init len (fun j -> encrypt_row t g rows.(lo + j)))
        in
        Array.concat (Array.to_list chunks)
    | Some _ | None ->
        (* Single-domain path: draw from the database PRNG row by row,
           in order — byte-identical to sequential {!insert}. *)
        Array.map (fun row -> encrypt_row t t.g row) rows
  in
  Table.insert_batch t.table encrypted

let encrypted_schema t = t.enc_schema

let tags_for t ~column m = Column_enc.search_tags (column_encryptor t column) m

(* The column's profiled plaintext support, in the distribution's
   canonical (descending-probability) order — what the join rewrite
   enumerates to build per-plaintext tag buckets. *)
let support t ~column = Dist.Empirical.support (Column_enc.dist (column_encryptor t column))

let search_predicate t ~column m =
  let tags = tags_for t ~column m in
  Predicate.In (tag_column column, List.map (fun tag -> Value.Int tag) tags)

let freeze t = Table.freeze t.table

(* Every search runs over a view: the caller's, or one frozen now. *)
let view_or_freeze ?view t = match view with Some v -> v | None -> freeze t

let search_ids ?view t ~column m =
  Obs.Trace.with_span "edb.search_ids" @@ fun () ->
  let pred = phase h_rewrite "query.rewrite" (fun () -> search_predicate t ~column m) in
  phase h_exec "query.exec" (fun () ->
      Executor.run_view (view_or_freeze ?view t) ~projection:Executor.Row_ids pred)

let range_index t column =
  match Hashtbl.find_opt t.range_indexes column with
  | Some ri -> ri
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not range-indexed" column)

let range_columns t = Hashtbl.fold (fun c _ acc -> c :: acc) t.range_indexes []

let range_struct t column =
  match Hashtbl.find_opt t.range_structs column with
  | Some rs -> rs
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not range-indexed" column)

let range_tree t column = Range_struct.tree (range_struct t column)
let range_cover t ~column ~lo ~hi = Range_struct.cover (range_struct t column) ~lo ~hi

let range_predicate t ~column ~lo ~hi =
  let cover = range_cover t ~column ~lo ~hi in
  Predicate.In
    (rtag_column column, Array.to_list (Array.map (fun r -> Value.Int r) cover.Range_struct.roots))

let blob_of = function
  | Value.Blob ct -> ct
  | v -> invalid_arg ("Encrypted_db.decrypt_row: expected blob, got " ^ Value.to_string v)

let check_mask ~ctx t = function
  | Some m when Array.length m <> Array.length t.slots ->
      invalid_arg (ctx ^ ": mask length must equal the plain arity")
  | Some _ | None -> ()

(* The cells [decrypt_row ?mask] reads: the key copy and data blobs of
   the masked columns. Tags never come back to the client, so they are
   never fetched. The layout assigns positions in plain-column order,
   so these come out ascending. *)
let fetch_positions ?mask t =
  check_mask ~ctx:"Encrypted_db.fetch_positions" t mask;
  Array.to_list t.slots
  |> List.filteri (fun i _ -> match mask with None -> true | Some m -> m.(i))
  |> List.map (function
       | Key p | Searchable { data_pos = p; _ } | Ranged { data_pos = p; _ } | Data { pos = p; _ } -> p)
  |> Array.of_list

(* Positions outside [mask] come back as NULL without touching their
   ciphertexts; the key column is a copy, not a decryption, so only the
   others count towards [edb.columns_decrypted_total]. *)
let decrypt_row ?mask t enc_row =
  let n = Array.length t.slots in
  check_mask ~ctx:"Encrypted_db.decrypt_row" t mask;
  let out = Array.make n Value.Null in
  let decrypted = ref 0 in
  for i = 0 to n - 1 do
    if match mask with None -> true | Some m -> m.(i) then
      match t.slots.(i) with
      | Key p -> out.(i) <- enc_row.(p)
      | Searchable { data_pos; enc; _ } ->
          out.(i) <- Value.Text (Column_enc.decrypt enc (blob_of enc_row.(data_pos)));
          incr decrypted
      | Ranged { data_pos = p; key; _ } | Data { pos = p; key } ->
          out.(i) <- Value_codec.decode_exn (Crypto.Ctr.decrypt key (blob_of enc_row.(p)));
          incr decrypted
  done;
  Obs.Metrics.incr m_rows_decrypted;
  Obs.Metrics.add m_columns_decrypted !decrypted;
  out

(* Back half of a row search: decrypt every returned row, then the
   bucketized client-side false-positive filter. *)
let decrypt_and_filter t ~column m (result : Executor.result) =
  let col_pos = Schema.column_index t.plain_schema column in
  let decrypted =
    phase h_decrypt "query.decrypt" (fun () ->
        Array.to_list (Array.map (decrypt_row t) result.rows))
  in
  let rows =
    phase h_filter "query.filter" (fun () ->
        if Scheme.is_bucketized t.kind then
          (* Client-side false-positive filter (paper §V-C1). Compares a
             decrypted plaintext against the query value, so it runs
             constant-time like every other match on secret data. *)
          List.filter
            (fun row ->
              match row.(col_pos) with
              | Value.Text s -> Stdx.Bytes_util.ct_equal s m
              | _ -> false)
            decrypted
        else decrypted)
  in
  (rows, result)

let search_rows ?view t ~column m =
  Obs.Trace.with_span "edb.search_rows" @@ fun () ->
  let pred = phase h_rewrite "query.rewrite" (fun () -> search_predicate t ~column m) in
  let result =
    phase h_exec "query.exec" (fun () ->
        Executor.run_view (view_or_freeze ?view t) ~projection:Executor.All_columns pred)
  in
  decrypt_and_filter t ~column m result
