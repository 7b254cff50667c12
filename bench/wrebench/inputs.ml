(* Seeded inputs for the wrebench workloads: the SPARTA rows each store
   is loaded with, the statement list every client connection replays,
   and the answer a plaintext Sqldb oracle gives for each statement.
   Everything here is built before set-up starts and is never timed.

   The seed changes the data and the predicates, but not a workload's
   cost profile: statements come in groups of near-equal cost whose
   sizes are pinned by share of the rows, by rank or by range bucket,
   and are dealt so both connections carry the same mix. A run replays
   its lists in whole passes, so every run executes the same kind of
   work and seeds can be compared. *)

open Sqldb

type workload = Sparta | Range | Join | Read_write

let all = [ Sparta; Range; Join; Read_write ]

let name = function
  | Sparta -> "sparta"
  | Range -> "range"
  | Join -> "join"
  | Read_write -> "read-write"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Statement classes: latency samples and traced layers are filed
   under these. Every workload issues both read projections, so the
   [star]/[id] split exists everywhere; only [read-write] writes. *)
type op = Star | Id | Insert | Update | Delete

let op_name = function
  | Star -> "star"
  | Id -> "id"
  | Insert -> "insert"
  | Update -> "update"
  | Delete -> "delete"

let is_read = function Star | Id -> true | Insert | Update | Delete -> false

(* ---------------- expected answers ---------------- *)

(* Order-independent fingerprint of a row multiset: a count plus the
   wrapping sum of a mixed per-row hash. A LIMIT answer is any
   sub-multiset of the full answer, so its full answer is kept as a
   digest -> multiplicity table. *)
let row_digest (r : Value.t array) =
  let h = Array.fold_left (fun h v -> (h * 1_000_003) lxor Hashtbl.hash v) (Array.length r) r in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let rows_digest rows = List.fold_left (fun acc r -> acc + row_digest r) 0 rows

type expect =
  | Rows of { columns : string list; count : int; digest : int }
  | Some_of of { columns : string list; want : int; full : (int, int) Hashtbl.t }
  | Affected of int

type stmt = { sql : string; op : op; expect : expect }

let check expect (r : Server.Wire.result_payload) =
  match expect with
  | Affected n -> r.affected = n
  | Rows { columns; count; digest } ->
      r.columns = columns && List.length r.rows = count && rows_digest r.rows = digest
  | Some_of { columns; want; full } ->
      r.columns = columns
      && List.length r.rows = want
      &&
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun row ->
          let d = row_digest row in
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen d) in
          Hashtbl.replace seen d n;
          n <= Option.value ~default:0 (Hashtbl.find_opt full d))
        r.rows

let oracle_rows db sql =
  match Sql.execute db sql with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "wrebench: oracle rejects %S: %s" sql e)

let expect_rows db sql =
  let r = oracle_rows db sql in
  Rows { columns = r.Sql.columns; count = List.length r.Sql.rows; digest = rows_digest r.Sql.rows }

let expect_limit db ~base n =
  let r = oracle_rows db base in
  let full = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let d = row_digest row in
      Hashtbl.replace full d (1 + Option.value ~default:0 (Hashtbl.find_opt full d)))
    r.Sql.rows;
  Some_of { columns = r.Sql.columns; want = min n (List.length r.Sql.rows); full }

(* ---------------- connections ---------------- *)

(* A connection replays its slots in order, wrapping around. A
   [Next_write] slot takes the next statement of the connection's write
   cycle, which walks the connection's own held-out rows through
   INSERT, UPDATE, DELETE — so every write affects exactly one row no
   matter where a run stops, and the cycle never collides with the
   other connection's rows. *)
type slot = Stmt of stmt | Next_write

type conn = {
  slots : slot array;
  writes : stmt array;
  mutable pos : int;
  mutable wpos : int;
  mutable acked : string list;  (** acknowledged writes, newest first *)
}

let conn ?(writes = [||]) slots = { slots; writes; pos = 0; wpos = 0; acked = [] }

let next c =
  let s =
    match c.slots.(c.pos mod Array.length c.slots) with
    | Stmt s -> s
    | Next_write ->
        let w = c.writes.(c.wpos mod Array.length c.writes) in
        c.wpos <- c.wpos + 1;
        w
  in
  c.pos <- c.pos + 1;
  s

let reads c = List.filter_map (function Stmt s -> Some s | Next_write -> None) (Array.to_list c.slots)
let first_reads c n = List.filteri (fun i _ -> i < n) (reads c)

(* ---------------- tables ---------------- *)

type table = {
  tname : string;
  schema : Schema.t;
  enc_columns : string list;
  load : Value.t array array;
  profile : Value.t array array;  (** rows the column distributions are profiled over *)
  range : (string * int) list;  (** range-indexed INT columns and their bucket counts *)
}

type t = {
  seed : int;
  scheme : Wre.Scheme.kind;
  tables : table list;  (** head is the primary table the server freezes per batch *)
  conns : conn array;
  oracle : Database.t;
  replayed : int array;  (** per connection: acked writes already applied to [oracle] *)
  post_checks : t -> stmt list;
}

let clients = 2
let main_schema = Sparta.Generator.schema
let enc_columns = Sparta.Generator.encrypted_columns

let watch_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "lname"; ty = TText; nullable = false };
      { name = "reason"; ty = TText; nullable = false };
    ]

let rows_loaded t = List.fold_left (fun acc tb -> acc + Array.length tb.load) 0 t.tables

let build_oracle tables =
  let db = Database.create () in
  List.iter
    (fun tb ->
      let table = Database.create_table db ~name:tb.tname ~schema:tb.schema in
      ignore (Table.insert_batch table tb.load : int);
      List.iter (fun c -> ignore (Table.create_index table ~column:c)) ("id" :: tb.enc_columns))
    tables;
  db

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Stdx.Prng.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let size_of st =
  match st.expect with Rows r -> r.count | Some_of s -> s.want | Affected n -> n

(* Deal statements so the connections run matched pairs: sort by class
   and answer size, hand them out alternately, then put both lists in
   one shared random order. Position i of every list then holds
   statements of the same class and neighbouring size. The server
   answers a read batch all at once, so a statement batched with a
   bigger one waits for it; matched pairs keep that wait small and the
   same from run to run. *)
let deal g stmts =
  let sorted = Array.of_list (List.stable_sort (fun a b -> compare (a.op, size_of a) (b.op, size_of b)) stmts) in
  let per = Array.length sorted / clients in
  let order = Array.init per Fun.id in
  shuffle g order;
  Array.init clients (fun c -> conn (Array.map (fun i -> Stmt sorted.((i * clients) + c)) order))

(* [k] stratum picks out of [n]: one uniformly inside each of [k] equal
   slices, in a random slice order. *)
let strata g ~k ~n =
  let order = Array.init k Fun.id in
  shuffle g order;
  Array.map (fun j -> min (n - 1) ((j * n / k) + Stdx.Prng.int g (max 1 (n / k)))) order

let text_of (r : Value.t array) col =
  match r.(Schema.column_index main_schema col) with Value.Text s -> s | _ -> ""

let int_column schema col (r : Value.t array) =
  match r.(Schema.column_index schema col) with Value.Int x -> x | _ -> 0L

let lit s = Sql.print_value (Value.Text s)

let main_table ?profile load =
  {
    tname = "main";
    schema = main_schema;
    enc_columns;
    load;
    profile = Option.value ~default:load profile;
    range = [];
  }

let proj op ~star ~id = if op = Star then star else id

(* After a restart, the read-only workloads re-ask a handful of their
   own statements. *)
let replay_reads t = List.concat_map (fun c -> first_reads c 5) (Array.to_list t.conns)

(* ---------------- the four workloads ---------------- *)

(* The paper's Figs. 4-7 traffic: equality predicates over the
   encrypted columns, each as SELECT * and as SELECT id, in three cost
   groups: 1-row ssn lookups (10 of every 32 predicates), values
   matching about 1% of the rows (16 of 32) and values matching about
   5% (6 of 32). A statement's cost is set by the rows it decrypts, and
   the median and p90 each fall inside a group, so they measure that
   group's cost rather than which sizes a seed happened to draw.
   SPARTA's columns are Zipf over fixed tables, so the value nearest a
   target count has about that count under every seed; the seed picks
   the rows, the ssns, and which of several equally near values. *)
let sparta ~g ~base ~statements =
  let n = Array.length base in
  let dist_of = Wre.Dist_est.of_rows ~schema:main_schema ~columns:enc_columns (Array.to_seq base) in
  let candidates =
    Array.of_list
      (List.concat_map
         (fun col ->
           let d = dist_of col in
           Array.to_list (Array.map (fun v -> (Dist.Empirical.count d v, col, v)) (Dist.Empirical.support d)))
         (List.filter (( <> ) "ssn") enc_columns))
  in
  shuffle g candidates;
  let nearest ~exclude target k =
    let off (c, _, _) = Float.abs (log (float_of_int c /. float_of_int target)) in
    List.filteri
      (fun i _ -> i < k)
      (List.stable_sort
         (fun a b -> Float.compare (off a) (off b))
         (List.filter (fun x -> not (List.mem x exclude)) (Array.to_list candidates)))
  in
  let k = max 3 (statements / 2) in
  let n_large = max 1 (k * 6 / 32) and n_tiny = max 1 (k * 10 / 32) in
  let large = nearest ~exclude:[] (max 1 (n / 20)) n_large in
  let mid = nearest ~exclude:large (max 1 (n / 100)) (k - n_large - n_tiny) in
  let tiny = List.init n_tiny (fun _ -> (1, "ssn", text_of base.(Stdx.Prng.int g n) "ssn")) in
  let queries = tiny @ mid @ large in
  let tables = [ main_table base ] in
  let db = build_oracle tables in
  let stmts =
    List.concat_map
      (fun (_, column, value) ->
        List.map
          (fun op ->
            let sql =
              Printf.sprintf "SELECT %s FROM main WHERE %s = %s" (proj op ~star:"*" ~id:"id") column (lit value)
            in
            { sql; op; expect = expect_rows db sql })
          [ Star; Id ])
      queries
  in
  (tables, db, deal g stmts)

(* Range traffic on the plaintext [income] column, bucketized into
   [range_buckets] equi-depth range buckets. The server answers a range
   with every row of the buckets it touches, so a statement's cost is
   set by how many buckets it spans; widths are therefore counted in
   buckets, and each class has four equal groups: a narrow BETWEEN
   (~0.1% of the rows, one bucket), a one-bucket-wide BETWEEN (two
   buckets), an OR of two narrow ranges (two buckets, the flat rtag
   plan), and a four-bucket-wide BETWEEN (five buckets). Three quarters
   are bare BETWEENs, the Range_traverse plan. The median and p90 fall
   inside a group, not on the step between two. Bounds sit at rank
   strata, so every seed spreads them over the whole column. *)
let range_buckets = 64

let range ~g ~base ~statements =
  let incomes = Array.map (int_column main_schema "income") base in
  Array.sort Int64.compare incomes;
  let n = Array.length incomes in
  let first = strata g ~k:statements ~n and second = strata g ~k:statements ~n in
  let between width lo =
    let lo = min lo (max 0 (n - width)) in
    Printf.sprintf "income BETWEEN %Ld AND %Ld" incomes.(lo) incomes.(min (n - 1) (lo + width - 1))
  in
  let bucket = max 1 (n / range_buckets) and narrow = max 1 (n / 1000) in
  let tables = [ { (main_table base) with range = [ ("income", range_buckets) ] } ] in
  let db = build_oracle tables in
  let stmts =
    List.init statements (fun i ->
        let op = if i mod 2 = 0 then Star else Id in
        let cond =
          match i / 2 mod 4 with
          | 0 -> between narrow first.(i)
          | 1 -> between bucket first.(i)
          | 2 -> Printf.sprintf "%s OR %s" (between narrow first.(i)) (between narrow second.(i))
          | _ -> between (4 * bucket) first.(i)
        in
        let sql = Printf.sprintf "SELECT %s FROM main WHERE %s" (proj op ~star:"*" ~id:"id") cond in
        { sql; op; expect = expect_rows db sql })
  in
  (tables, db, deal g stmts)

(* Two-table equi-join. [watch] (one row per 100 of [main]) holds each
   last name of a 20-name slice of main's lname support equally often.
   The slice sits at fixed ranks (the 80th to 90th percentile of the
   support, names matching about 0.18% of the rows each), so under
   every seed a join has about 1,400 true pairs among 3,000 to 3,700
   candidates (bucketized tags add false positives). The proxy
   decrypts every distinct row among the candidates before it applies
   the WHERE, so a statement's cost is that decryption unless a LIMIT
   stops it early. One statement in six projects [*] with a WHERE
   keeping half of [watch] at a seeded offset, and ships every
   decrypted column back; one in six projects [main.id, watch.id] with
   LIMIT 10 (its answer checked as a sub-multiset); the rest project
   [main.id, watch.id] with no, a narrow or a wide WHERE on watch.id.
   Each class's median, and the p50 and p90 over all, then fall inside
   a group of near-equal statements. *)
let join ~g ~base ~statements =
  let n = Array.length base in
  let d = Wre.Dist_est.of_rows ~schema:main_schema ~columns:[ "lname" ] (Array.to_seq base) "lname" in
  let support = Dist.Empirical.support d in
  let from = min (Array.length support - 1) (Array.length support * 8 / 10) in
  let slice = Array.sub support from (min 20 (Array.length support - from)) in
  let n_watch = max 10 (n / 100) in
  let names = Array.init n_watch (fun i -> slice.(i mod Array.length slice)) in
  shuffle g names;
  let reasons = [| "audit"; "review"; "fraud"; "sanctions" |] in
  let watch =
    Array.init n_watch (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text names.(i);
          Value.Text reasons.(Stdx.Prng.int g (Array.length reasons));
        |])
  in
  let tables =
    [
      main_table base;
      {
        tname = "watch";
        schema = watch_schema;
        enc_columns = [ "lname" ];
        load = watch;
        profile = watch;
        range = [];
      };
    ]
  in
  let db = build_oracle tables in
  let stmts =
    List.init statements (fun i ->
        let op = if i mod 6 = 0 then Star else Id in
        let rows w =
          let a = Stdx.Prng.int g (n_watch - w + 1) in
          Printf.sprintf " WHERE watch.id BETWEEN %d AND %d" a (a + w - 1)
        in
        let filter =
          match i mod 6 with
          | 0 | 4 -> rows (n_watch / 2)
          | 3 -> rows (n_watch / 4)
          | _ -> ""
        in
        let base_sql =
          Printf.sprintf "SELECT %s FROM main JOIN watch ON main.lname = watch.lname%s"
            (proj op ~star:"*" ~id:"main.id, watch.id")
            filter
        in
        if i mod 6 = 1 then { sql = base_sql ^ " LIMIT 10"; op; expect = expect_limit db ~base:base_sql 10 }
        else { sql = base_sql; op; expect = expect_rows db base_sql })
  in
  (tables, db, deal g stmts)

(* Mixed reads and writes. The distributions are profiled over the base
   rows plus held-out rows (so held-out plaintexts are encryptable), but
   only the base rows are loaded. Four slots in five read an untouched
   base row by ssn (about one row back); one in five is the
   connection's next write over its own held-out rows. *)
let read_write ~g ~base ~held_out ~statements =
  let tables = [ main_table ~profile:(Array.append base held_out) base ] in
  let db = build_oracle tables in
  let cities =
    Dist.Empirical.support
      (Wre.Dist_est.of_rows ~schema:main_schema ~columns:[ "city" ]
         (Array.to_seq (Array.append base held_out))
         "city")
  in
  let cycle r =
    let ssn = lit (text_of r "ssn") in
    [
      {
        sql =
          Printf.sprintf "INSERT INTO main VALUES (%s)"
            (String.concat ", " (Array.to_list (Array.map Sql.print_value r)));
        op = Insert;
        expect = Affected 1;
      };
      {
        sql =
          Printf.sprintf "UPDATE main SET city = %s WHERE ssn = %s"
            (lit cities.(Stdx.Prng.int g (Array.length cities)))
            ssn;
        op = Update;
        expect = Affected 1;
      };
      { sql = Printf.sprintf "DELETE FROM main WHERE ssn = %s" ssn; op = Delete; expect = Affected 1 };
    ]
  in
  let per_conn = max 5 (statements / clients) in
  let conns =
    Array.init clients (fun c ->
        let slots =
          Array.init per_conn (fun j ->
              if j mod 5 = 4 then Next_write
              else
                let op = if j mod 2 = 0 then Star else Id in
                let sql =
                  Printf.sprintf "SELECT %s FROM main WHERE ssn = %s" (proj op ~star:"*" ~id:"id")
                    (lit (text_of base.(Stdx.Prng.int g (Array.length base)) "ssn"))
                in
                Stmt { sql; op; expect = expect_rows db sql })
        in
        let own = List.filteri (fun i _ -> i mod clients = c) (Array.to_list held_out) in
        conn ~writes:(Array.of_list (List.concat_map cycle own)) slots)
  in
  (tables, db, conns)

(* Apply every acknowledged write not yet applied to the oracle. Each
   connection only writes its own rows, so connections commute. *)
let replay_writes t =
  Array.iteri
    (fun c conn ->
      List.iteri
        (fun i sql -> if i >= t.replayed.(c) then ignore (oracle_rows t.oracle sql : Sql.query_result))
        (List.rev conn.acked);
      t.replayed.(c) <- List.length conn.acked)
    t.conns

(* Every held-out ssn, looked up 50 to a statement: the store must hold
   exactly the base rows plus the acknowledged writes. *)
let held_out_lookups held_out t =
  replay_writes t;
  let ssns = Array.map (fun r -> lit (text_of r "ssn")) held_out in
  List.init
    ((Array.length ssns + 49) / 50)
    (fun i ->
      let group = Array.sub ssns (i * 50) (min 50 (Array.length ssns - (i * 50))) in
      let sql =
        Printf.sprintf "SELECT * FROM main WHERE ssn IN (%s)" (String.concat ", " (Array.to_list group))
      in
      { sql; op = Star; expect = expect_rows t.oracle sql })

(* Statements per run, as dealt to the two connections: one pass over
   them takes 0.4 to 0.9 s at 10k rows, so a 15 s run makes 15 to 35. *)
let default_statements = function
  | Sparta -> 64
  | Range -> 32
  | Join -> 24
  | Read_write -> 150

let make workload ~seed ~rows ~statements =
  let g = Stdx.Prng.create (Int64.of_int (Hashtbl.hash (name workload, seed))) in
  let held = if workload = Read_write then max (2 * clients) (rows / 50) else 0 in
  let gen = Sparta.Generator.create ~seed:(Stdx.Prng.int64 g) in
  let all_rows = Array.of_seq (Sparta.Generator.rows gen ~n:(rows + (2 * held))) in
  let base = Array.sub all_rows 0 rows in
  (* Writes address held-out rows by ssn, so each must own its ssn: a
     generated ssn occasionally repeats, and an UPDATE would then touch
     a base row too. *)
  let ssn_count = Hashtbl.create (Array.length all_rows) in
  Array.iter
    (fun r ->
      let k = text_of r "ssn" in
      Hashtbl.replace ssn_count k (1 + Option.value ~default:0 (Hashtbl.find_opt ssn_count k)))
    all_rows;
  let held_out =
    Array.of_list
      (List.filteri
         (fun i _ -> i < held)
         (List.filter
            (fun r -> Hashtbl.find ssn_count (text_of r "ssn") = 1)
            (Array.to_list (Array.sub all_rows rows (2 * held)))))
  in
  let scheme, (tables, oracle, conns), post_checks =
    match workload with
    | Sparta -> (Wre.Scheme.Bucketized 1000.0, sparta ~g ~base ~statements, replay_reads)
    | Range -> (Wre.Scheme.Poisson 1000.0, range ~g ~base ~statements, replay_reads)
    | Join -> (Wre.Scheme.Bucketized 1000.0, join ~g ~base ~statements, replay_reads)
    | Read_write ->
        (Wre.Scheme.Poisson 1000.0, read_write ~g ~base ~held_out ~statements, held_out_lookups held_out)
  in
  { seed; scheme; tables; conns; oracle; replayed = Array.make clients 0; post_checks }
