type wre_config = {
  table_name : string;
  kind : Wre.Scheme.kind;
  fallback : Wre.Column_enc.fallback;
  tag_algo : Crypto.Prf.algo;
  k0 : string;
  k1 : string;
  plain_schema : Sqldb.Schema.t;
  key_column : string;
  encrypted_columns : string list;
  dists : (string * (string * int) list) list;
  ranges : (string * int64 array) list;
  prng : string;
}

type op =
  | Create_table of { name : string; schema : Sqldb.Schema.t }
  | Create_index of { table : string; column : string }
  | Apply of {
      table : string;
      deleted : int array;
      rows : Sqldb.Value.t array array;
      prng : string option;
    }
  | Vacuum of { table : string }
  | Attach_wre of wre_config

open Codec

let put_prng_opt b = function
  | None -> put_bool b false
  | Some s ->
      put_bool b true;
      put_str b s

let get_prng_opt c = if get_bool c then Some (get_str c) else None

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let fallback_code = function `Reject -> 0 | `Min_frequency -> 1

let fallback_of_code = function
  | 0 -> `Reject
  | 1 -> `Min_frequency
  | n -> raise (Corrupt (Printf.sprintf "bad fallback code %d" n))

let algo_code = function Crypto.Prf.Hmac_sha256 -> 0 | Crypto.Prf.Siphash24 -> 1

let algo_of_code = function
  | 0 -> Crypto.Prf.Hmac_sha256
  | 1 -> Crypto.Prf.Siphash24
  | n -> raise (Corrupt (Printf.sprintf "bad PRF algo code %d" n))

let put_wre_config b cfg =
  put_str b cfg.table_name;
  put_str b (Wre.Scheme.to_string cfg.kind);
  put_u8 b (fallback_code cfg.fallback);
  put_u8 b (algo_code cfg.tag_algo);
  put_index_kind b;
  put_str b cfg.k0;
  put_str b cfg.k1;
  put_schema b cfg.plain_schema;
  put_str b cfg.key_column;
  put_list b put_str cfg.encrypted_columns;
  put_list b
    (fun b (col, counts) ->
      put_str b col;
      put_list b
        (fun b (m, n) ->
          put_str b m;
          put_u32 b n)
        counts)
    cfg.dists;
  put_list b
    (fun b (col, boundaries) ->
      put_str b col;
      put_u32 b (Array.length boundaries);
      Array.iter (put_u64 b) boundaries)
    cfg.ranges;
  put_str b cfg.prng

let get_wre_config c =
  let table_name = get_str c in
  let kind =
    match Wre.Scheme.of_string (get_str c) with
    | Ok k -> k
    | Error e -> raise (Corrupt ("bad scheme kind: " ^ e))
  in
  let fallback = fallback_of_code (get_u8 c) in
  let tag_algo = algo_of_code (get_u8 c) in
  get_index_kind c;
  let k0 = get_str c in
  let k1 = get_str c in
  let plain_schema = get_schema c in
  let key_column = get_str c in
  let encrypted_columns = get_list c get_str in
  let dists =
    get_list c (fun c ->
        let col = get_str c in
        let counts =
          get_list c (fun c ->
              let m = get_str c in
              let n = get_u32 c in
              (m, n))
        in
        (col, counts))
  in
  let ranges =
    get_list c (fun c ->
        let col = get_str c in
        let n = get_u32 c in
        let boundaries = Array.init n (fun _ -> get_u64 c) in
        (col, boundaries))
  in
  let prng = get_str c in
  {
    table_name;
    kind;
    fallback;
    tag_algo;
    k0;
    k1;
    plain_schema;
    key_column;
    encrypted_columns;
    dists;
    ranges;
    prng;
  }

let encode op =
  let b = Buffer.create 128 in
  (match op with
  | Create_table { name; schema } ->
      put_u8 b 1;
      put_str b name;
      put_schema b schema
  | Create_index { table; column } ->
      put_u8 b 2;
      put_str b table;
      put_str b column;
      put_index_kind b
  | Apply { table; deleted; rows; prng } ->
      put_u8 b 8;
      put_str b table;
      put_u32 b (Array.length deleted);
      Array.iter (put_u32 b) deleted;
      put_u32 b (Array.length rows);
      Array.iter (put_row b) rows;
      put_prng_opt b prng
  | Vacuum { table } ->
      put_u8 b 6;
      put_str b table
  | Attach_wre cfg ->
      put_u8 b 7;
      put_wre_config b cfg);
  Buffer.contents b

(* A count read from the input: each element takes at least one byte,
   so a larger count is corrupt, caught before anything is allocated. *)
let get_count s c =
  let n = get_u32 c in
  if n > String.length s then raise (Corrupt "batch size exceeds input");
  n

let decode s =
  let c = cursor s in
  let op =
    match get_u8 c with
    | 1 ->
        let name = get_str c in
        let schema = get_schema c in
        Create_table { name; schema }
    | 2 ->
        let table = get_str c in
        let column = get_str c in
        get_index_kind c;
        Create_index { table; column }
    (* Tags 3-5 are the per-row records of older builds (one insert,
       one insert batch, one tombstone); each replays as the
       one-statement apply it was. *)
    | 3 ->
        let table = get_str c in
        let row = get_row c in
        let prng = get_prng_opt c in
        Apply { table; deleted = [||]; rows = [| row |]; prng }
    | 4 ->
        let table = get_str c in
        let rows = Array.init (get_count s c) (fun _ -> get_row c) in
        let prng = get_prng_opt c in
        Apply { table; deleted = [||]; rows; prng }
    | 5 ->
        let table = get_str c in
        let id = get_u32 c in
        Apply { table; deleted = [| id |]; rows = [||]; prng = None }
    | 6 -> Vacuum { table = get_str c }
    | 7 -> Attach_wre (get_wre_config c)
    | 8 ->
        let table = get_str c in
        let deleted = Array.init (get_count s c) (fun _ -> get_u32 c) in
        let rows = Array.init (get_count s c) (fun _ -> get_row c) in
        let prng = get_prng_opt c in
        Apply { table; deleted; rows; prng }
    | n -> raise (Corrupt (Printf.sprintf "bad op tag %d" n))
  in
  if not (at_end c) then raise (Corrupt "trailing bytes after op");
  op
