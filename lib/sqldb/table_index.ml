type kind = Btree | Hash

type t = B of Btree_index.t | H of Hash_index.t

let create kind pager ~name =
  match kind with
  | Btree -> B (Btree_index.create pager ~name)
  | Hash -> H (Hash_index.create pager ~name)

let kind = function B _ -> Btree | H _ -> Hash
let name = function B i -> Btree_index.name i | H i -> Hash_index.name i

let insert t key id =
  match t with B i -> Btree_index.insert i key id | H i -> Hash_index.insert i key id

let remove t key id =
  match t with B i -> Btree_index.remove i key id | H i -> Hash_index.remove i key id

let snapshot = function B i -> B (Btree_index.snapshot i) | H i -> H (Hash_index.snapshot i)
let lookup t key = match t with B i -> Btree_index.lookup i key | H i -> Hash_index.lookup i key
let lookup_many t keys = Postings.union_ids (List.map (lookup t) keys)

let range t ?lo ?hi () =
  match t with B i -> Some (Btree_index.range i ?lo ?hi ()) | H _ -> None

let entry_count = function B i -> Btree_index.entry_count i | H i -> Hash_index.entry_count i
let size_bytes = function B i -> Btree_index.size_bytes i | H i -> Hash_index.size_bytes i
