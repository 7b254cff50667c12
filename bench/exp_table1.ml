(* Table I — ciphertext expansion — and the §VI-B database-creation
   comparison. Builds the plaintext and encrypted databases at the
   requested scale, reports measured sizes, and (because sizes and load
   cost are verified linear in the row count) prints the extrapolated
   1M / 10M rows of the paper's table. *)

let run ~rows:n_rows () =
  Bench_util.heading (Printf.sprintf "Table I: ciphertext expansion (%d rows)" n_rows);
  let rows = Bench_util.generate_rows n_rows in
  let dist_of = Bench_util.dist_of_rows rows in
  let plain, plain_wall = Bench_util.build_plain rows in
  let edb, enc_wall =
    Bench_util.build_encrypted ~kind:(Wre.Scheme.Poisson 1000.0) ~dist_of rows
  in
  let enc_table = Wre.Encrypted_db.table edb in
  let p_db = Sqldb.Table.heap_bytes plain and p_tot = Sqldb.Table.total_bytes plain in
  let e_db = Sqldb.Table.heap_bytes enc_table and e_tot = Sqldb.Table.total_bytes enc_table in
  let t = Stdx.Table_fmt.create [ "Encryption Type"; "DB Size"; "DB + Indexes Size" ] in
  let label tag = Printf.sprintf "%s %s" (Bench_util.mib tag |> Printf.sprintf "%.0f MB") "" in
  ignore label;
  let add name db tot =
    Stdx.Table_fmt.add_row t
      [ name; Printf.sprintf "%.0f MB" (Bench_util.mib db); Printf.sprintf "%.0f MB" (Bench_util.mib tot) ]
  in
  let scale_label = Printf.sprintf "%dk" (n_rows / 1000) in
  add (scale_label ^ " Plaintext") p_db p_tot;
  add (scale_label ^ " Encrypted") e_db e_tot;
  (* Sizes are linear in rows (verified by the integration tests); fill
     in the paper's other scales by extrapolation. *)
  List.iter
    (fun (label, rows') ->
      if rows' > n_rows then begin
        let f x = x * rows' / n_rows in
        add (label ^ " Plaintext (extrapolated)") (f p_db) (f p_tot);
        add (label ^ " Encrypted (extrapolated)") (f e_db) (f e_tot)
      end)
    Bench_util.scales;
  Stdx.Table_fmt.print t;
  Printf.printf "expansion: DB %.2fx, DB+indexes %.2fx (paper 10M: 1.36x / 1.85x; claim: < 2x)\n"
    (float_of_int e_db /. float_of_int p_db)
    (float_of_int e_tot /. float_of_int p_tot);

  Bench_util.heading "Database creation (paper VI-B: 6,356 s vs 58,604 s at 10M, ~9x)";
  let plain_s = Bench_util.creation_seconds ~total_bytes:p_tot ~wall_ns:plain_wall in
  let enc_s = Bench_util.creation_seconds ~total_bytes:e_tot ~wall_ns:enc_wall in
  let t2 =
    Stdx.Table_fmt.create
      [ "Load"; "client wall (s)"; "incl. modeled write I/O (s)"; "per row (us)" ]
  in
  Stdx.Table_fmt.add_row t2
    [
      "plaintext";
      Printf.sprintf "%.2f" (plain_wall /. 1e9);
      Printf.sprintf "%.2f" plain_s;
      Printf.sprintf "%.1f" (plain_s *. 1e6 /. float_of_int n_rows);
    ];
  Stdx.Table_fmt.add_row t2
    [
      "encrypted";
      Printf.sprintf "%.2f" (enc_wall /. 1e9);
      Printf.sprintf "%.2f" enc_s;
      Printf.sprintf "%.1f" (enc_s *. 1e6 /. float_of_int n_rows);
    ];
  Stdx.Table_fmt.print t2;
  Printf.printf "encrypted/plaintext creation ratio: %.1fx (paper: 9.2x)\n" (enc_s /. plain_s)
