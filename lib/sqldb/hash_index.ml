(* lint: guarded-by Table.writer (indexes mutate only on the write path) *)
type t = { pager : Pager.t; rel : Pager.rel; name : string; mutable postings : Postings.t }

(* Postgres hash entries are hash code + item pointer: ~20 bytes with
   line pointer; pages target ~75% fill. *)
let entry_bytes = 20
let fill = 0.75

let create pager ~name = { pager; rel = Pager.make_rel pager ~name; name; postings = Postings.empty }
let name t = t.name
let snapshot t = { t with postings = t.postings }
let insert t key id = t.postings <- Postings.add t.postings key id
let remove t key id = t.postings <- fst (Postings.remove t.postings key id)
let entry_count t = Postings.entries t.postings
let distinct_keys t = Postings.keys t.postings

let entries_per_page t =
  max 1 (int_of_float (float_of_int (Pager.config t.pager).page_size *. fill /. float_of_int entry_bytes))

(* Number of primary bucket pages: next power of two that keeps the
   average bucket within one page, like Postgres's splitting rule. *)
let bucket_pages t =
  let needed = max 1 ((entry_count t + entries_per_page t - 1) / entries_per_page t) in
  let rec pow2 n = if n >= needed then n else pow2 (2 * n) in
  pow2 1

let size_bytes t = bucket_pages t * (Pager.config t.pager).page_size

let lookup t key =
  Pager.charge_probe t.pager;
  let n_buckets = bucket_pages t in
  let bucket = (Value.hash key land max_int) mod n_buckets in
  Pager.touch t.pager t.rel bucket;
  let _, ids = Postings.find t.postings key in
  let n = Array.length ids in
  (* Entries beyond one page's worth of this key spill into overflow
     pages chained off the bucket. Overflow page numbers live above the
     primary space. *)
  for i = 1 to (n - 1) / entries_per_page t do
    Pager.touch t.pager t.rel (n_buckets + (bucket * 64) + i)
  done;
  Pager.charge_rows t.pager n;
  ids
