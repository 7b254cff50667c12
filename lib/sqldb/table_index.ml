(* lint: guarded-by Table.writer (indexes mutate only on the write path) *)
type t = {
  rel : Pager.rel;
  mutable postings : Postings.t;
  mutable key_bytes : int; (* total key bytes across entries, for entry sizing *)
}

(* Postgres-like layout constants: 16 bytes of line pointer + TID
   overhead per entry, 24-byte page header. *)
let entry_overhead = 16
let internal_entry_bytes = 24

let create () = { rel = Pager.make_rel (); postings = Postings.empty; key_bytes = 0 }

let snapshot t = { t with postings = t.postings }

let insert t key id =
  t.postings <- Postings.add t.postings key id;
  t.key_bytes <- t.key_bytes + Value.index_key_bytes key

let remove t key id =
  let postings, removed = Postings.remove t.postings key id in
  t.postings <- postings;
  t.key_bytes <- t.key_bytes - (removed * Value.index_key_bytes key)

let entry_count t = Postings.entries t.postings
let distinct_keys t = Postings.keys t.postings

let avg_entry_bytes t =
  let entries = entry_count t in
  if entries = 0 then 24.0
  else (float_of_int t.key_bytes /. float_of_int entries) +. float_of_int entry_overhead

(* Effective leaf fill: sequential/duplicate-heavy keys pack near the
   90% fillfactor; uniformly random unique keys (PRF search tags) cause
   page splits that leave leaves slightly over half full. Interpolate
   on the unique-key fraction — this is what makes an encrypted tag
   index bigger than the plaintext index it replaces (paper Table I's
   "DB + Indexes" growing faster than "DB"). *)
let leaf_fill t =
  let entries = entry_count t in
  if entries = 0 then 0.9
  else begin
    let unique_fraction = float_of_int (distinct_keys t) /. float_of_int entries in
    0.9 -. (0.35 *. unique_fraction)
  end

let entries_per_leaf t =
  let usable = float_of_int Pager.cost_model.page_size *. leaf_fill t in
  max 1 (int_of_float (usable /. avg_entry_bytes t))

let leaf_pages t =
  let entries = entry_count t in
  if entries = 0 then 1 else (entries + entries_per_leaf t - 1) / entries_per_leaf t

let fanout t =
  let usable = float_of_int Pager.cost_model.page_size *. leaf_fill t in
  max 2 (int_of_float (usable /. float_of_int internal_entry_bytes))

(* Number of internal levels above the leaves (0 when a single leaf is
   also the root). *)
let height t =
  let f = fanout t in
  let rec levels pages acc = if pages <= 1 then acc else levels ((pages + f - 1) / f) (acc + 1) in
  levels (leaf_pages t) 0

let internal_pages t =
  let f = fanout t in
  let rec total pages acc =
    if pages <= 1 then acc else
      let above = (pages + f - 1) / f in
      total above (acc + above)
  in
  total (leaf_pages t) 0

let page_count t = leaf_pages t + internal_pages t
let size_bytes t = page_count t * Pager.cost_model.page_size

(* Walk root-to-leaf, touching one page per internal level. Internal
   page identity is derived from the leaf position so that lookups of
   nearby keys share upper pages, like a real tree. Page numbering:
   leaves are pages [0, leaf_pages); level l >= 1 starts at
   leaf_pages + (l-1) partitions. *)
let touch_path t ~leaf =
  let f = fanout t in
  let h = height t in
  let base = ref (leaf_pages t) in
  let idx = ref leaf in
  for level = 1 to h do
    idx := !idx / f;
    Pager.touch t.rel (!base + !idx);
    (* Each level above has ceil(prev/f) pages. *)
    let pages_at_level =
      let rec shrink p l = if l = 0 then p else shrink ((p + f - 1) / f) (l - 1) in
      shrink (leaf_pages t) level
    in
    base := !base + pages_at_level
  done

(* Touch the leaves holding entries [first_entry, first_entry +
   n_entries) of the key order — an entry's rank fixes its leaf — and
   charge the rows; a miss still descends the tree and reads one leaf. *)
let touch_entry_range t ~first_entry ~n_entries =
  if n_entries > 0 then begin
    let epl = entries_per_leaf t in
    let first_leaf = first_entry / epl in
    let last_leaf = (first_entry + n_entries - 1) / epl in
    touch_path t ~leaf:first_leaf;
    for leaf = first_leaf to last_leaf do
      Pager.touch t.rel leaf
    done
  end
  else touch_path t ~leaf:(min (max 0 (first_entry / entries_per_leaf t)) (leaf_pages t - 1));
  Pager.charge_rows n_entries

let lookup t key =
  Pager.charge_probe ();
  let first_entry, ids = Postings.find t.postings key in
  touch_entry_range t ~first_entry ~n_entries:(Array.length ids);
  ids

let lookup_many t keys = Postings.union_ids (List.map (lookup t) keys)

let range t ?lo ?hi () =
  Pager.charge_probe ();
  let first_entry, ids = Postings.range t.postings ?lo ?hi () in
  touch_entry_range t ~first_entry ~n_entries:(Array.length ids);
  ids
