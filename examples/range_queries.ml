(* Bucketized range queries over an encrypted INT column (the Range
   extension; see Wre.Range_index). Shows the trade-off: more buckets =
   fewer false positives per range but a finer-grained leakage
   partition.

     dune exec examples/range_queries.exe *)

let () =
  let gen = Sparta.Generator.create ~seed:33L in
  let rows = Array.of_seq (Sparta.Generator.rows gen ~n:20_000) in
  let income_pos = Sqldb.Schema.column_index Sparta.Generator.schema "income" in
  let incomes =
    Array.map (fun r -> match r.(income_pos) with Sqldb.Value.Int x -> x | _ -> 0L) rows
  in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns:[ "lname" ]
      (Array.to_seq rows)
  in
  Printf.printf "20k records; querying income ranges through encrypted buckets\n\n";
  Printf.printf "%8s %22s %12s %12s %14s\n" "buckets" "range" "true rows" "server rows"
    "FP per query";
  List.iter
    (fun buckets ->
      let db = Sqldb.Database.create () in
      let master = Crypto.Keys.generate (Stdx.Prng.create 3L) in
      let edb =
        Wre.Encrypted_db.create
          ~range_columns:[ ("income", buckets) ]
          ~range_training:(fun _ -> incomes)
          ~db ~name:"main" ~plain_schema:Sparta.Generator.schema ~key_column:"id"
          ~encrypted_columns:[ "lname" ] ~kind:(Wre.Scheme.Poisson 1000.0) ~master ~dist_of
          ~seed:4L ()
      in
      Array.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
      let proxy = Wre.Proxy.create edb in
      List.iter
        (fun (lo, hi) ->
          match
            Wre.Proxy.execute proxy
              (Printf.sprintf "SELECT id FROM main WHERE income BETWEEN %Ld AND %Ld" lo hi)
          with
          | Error e -> failwith e
          | Ok r ->
              let found = List.length r.rows in
              Printf.printf "%8d %10Ld-%-11Ld %12d %12d %14d\n" buckets lo hi found r.server_rows
                (r.server_rows - found))
        [ (30_000L, 60_000L); (100_000L, 120_000L); (400_000L, 480_000L) ])
    [ 8; 32; 128 ];
  Printf.printf
    "\nreading: the server only ever learns which of B equi-depth buckets each row\n\
     falls in; a range costs the two edge buckets in false positives. B plays the\n\
     role lambda plays for equality: utility up, leakage granularity up.\n"
