(* Quickstart: encrypt a small table with Poisson WRE, then query it in
   plaintext SQL through the proxy, which rewrites the search and
   decrypts the results.

     dune exec examples/quickstart.exe *)

open Sqldb

let schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "city"; ty = TText; nullable = false };
      { name = "balance"; ty = TInt; nullable = false };
    ]

let people =
  [
    ("Alice", "Portland", 1200L); ("Bob", "Portland", 300L); ("Carol", "Seattle", 870L);
    ("Alice", "Seattle", 55L); ("Dave", "Portland", 9000L); ("Alice", "Portland", 42L);
    ("Erin", "Boise", 777L); ("Bob", "Boise", 1L); ("Frank", "Portland", 3500L);
    ("Alice", "Boise", 250L);
  ]

let () =
  (* 1. Plaintext rows. *)
  let rows =
    List.mapi
      (fun i (name, city, balance) ->
        [| Value.Int (Int64.of_int i); Value.Text name; Value.Text city; Value.Int balance |])
      people
  in

  (* 2. The data owner profiles the plaintext distribution of each
        searchable column during initialization. *)
  let dist_of =
    Wre.Dist_est.of_rows ~schema ~columns:[ "name"; "city" ] (List.to_seq rows)
  in

  (* 3. Keys: two master secrets; every subkey is derived from them. *)
  let master = Crypto.Keys.generate (Stdx.Prng.create 0xC0FFEEL) in

  (* 4. Create the encrypted table inside an ordinary SQL database and
        load it. The server only ever sees tags and AES blobs. *)
  let db = Database.create () in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"accounts" ~plain_schema:schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~kind:(Wre.Scheme.Poisson 50.0) ~master ~dist_of
      ~seed:42L ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;

  (* 5. Search: the proxy expands "name = 'Alice'" into an OR over this
        plaintext's search tags, the server answers from its index, and
        the proxy decrypts what comes back. *)
  let query = Wre.Encrypted_db.search_predicate edb ~column:"name" "Alice" in
  Format.printf "SQL sent to the server:@.  SELECT * FROM accounts WHERE %a@.@." Predicate.pp
    query;

  let proxy = Wre.Proxy.create edb in
  let result =
    match Wre.Proxy.execute proxy "SELECT * FROM accounts WHERE name = 'Alice'" with
    | Ok r -> r
    | Error e -> failwith e
  in
  Format.printf "server plan: %s, %d rows returned@."
    (match (Option.get result.exec).plan with
    | Executor.Index_scan c -> "index scan on " ^ c
    | Executor.Or_index_scan cs -> "index-union scan on " ^ String.concat ", " cs
    | Executor.Range_traverse c -> "range-tree traversal probing " ^ c
    | Executor.Seq_scan -> "sequential scan")
    result.server_rows;
  Format.printf "decrypted results:@.";
  List.iter
    (fun row ->
      match row with
      | [| Value.Int id; Value.Text name; Value.Text city; Value.Int balance |] ->
          Format.printf "  id=%Ld name=%s city=%s balance=%Ld@." id name city balance
      | _ -> assert false)
    result.rows;

  (* 6. What the snapshot adversary sees: tags and blobs only. *)
  let enc_row = Table.peek_row (Wre.Encrypted_db.table edb) 0 in
  Format.printf "@.one encrypted row at rest:@.  %s@."
    (String.concat ", " (Array.to_list (Array.map Value.to_string enc_row)))
