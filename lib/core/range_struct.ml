type t = {
  boundaries : int64 array;
  nodes : Sqldb.Range_tree.node array;
  tree : Sqldb.Range_tree.t;
}

type cover = { roots : int64 array; first_bucket : int; last_bucket : int }

(* A node covering buckets [blo, bhi) gets the PRF pseudonym of that
   interval. [bhi <= b] and [blo < b], so [blo * (b + 1) + bhi] is
   injective over intervals — distinct intervals can never collide on
   a salt, and a single-bucket leaf's salt differs from the bucket
   search tag's salt space because it uses a separate key. *)
let node_salt ~b ~blo ~bhi = (blo * (b + 1)) + bhi

let create ~master ~column ~boundaries =
  let boundaries = Array.copy boundaries in
  Array.iteri
    (fun i v ->
      if i > 0 && Int64.compare boundaries.(i - 1) v >= 0 then
        invalid_arg "Range_struct.create: boundaries must be strictly increasing")
    boundaries;
  let b = Array.length boundaries + 1 in
  (* Leaf bucket tags reuse the flat [Range_index] derivation (same
     "/range" key, salt = bucket id) so a traversal expands to exactly
     the tags the rtag column stores; internal pseudonyms come from a
     separate "/range/node" key so the two tag spaces never overlap. *)
  let leaf_prf = Crypto.Keys.prf_key master ~column:(column ^ "/range") in
  let node_prf = Crypto.Keys.prf_key master ~column:(column ^ "/range/node") in
  let nodes = Stdx.Vec.create () in
  (* Balanced mid-split over [blo, bhi), children in preorder. *)
  let rec build blo bhi =
    let me = Stdx.Vec.length nodes in
    let tag = Crypto.Prf.tag_salt_only node_prf ~salt:(node_salt ~b ~blo ~bhi) in
    if bhi - blo = 1 then
      Stdx.Vec.push nodes
        Sqldb.Range_tree.
          { tag; left = -1; right = -1; bucket = Crypto.Prf.tag_salt_only leaf_prf ~salt:blo }
    else begin
      Stdx.Vec.push nodes Sqldb.Range_tree.{ tag; left = -1; right = -1; bucket = 0L };
      let mid = blo + ((bhi - blo) / 2) in
      build blo mid;
      let right = Stdx.Vec.length nodes in
      build mid bhi;
      Stdx.Vec.set nodes me Sqldb.Range_tree.{ tag; left = me + 1; right; bucket = 0L }
    end
  in
  build 0 b;
  let nodes = Stdx.Vec.to_array nodes in
  { boundaries; nodes; tree = Sqldb.Range_tree.make nodes }

let of_index ~master ~column index =
  create ~master ~column ~boundaries:(Range_index.boundaries index)

let bucket_count t = Array.length t.boundaries + 1
let node_count t = Array.length t.nodes
let depth t = Sqldb.Range_tree.depth t.tree
let tree t = t.tree
let nodes t = Array.copy t.nodes
let root_tag t = t.nodes.(0).Sqldb.Range_tree.tag

(* Same binary search as [Range_index.bucket_of]: first bucket whose
   upper bound is >= v. *)
let bucket_of t v =
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare t.boundaries.(mid) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let cover t ~lo ~hi =
  let b = bucket_count t in
  let first = match lo with None -> 0 | Some v -> bucket_of t v in
  let last = match hi with None -> b - 1 | Some v -> bucket_of t v in
  if last < first then { roots = [||]; first_bucket = first; last_bucket = last }
  else begin
    (* Canonical segment-tree cover: a node wholly inside [first, last]
       is emitted as a root; a node wholly outside is skipped; a
       partial overlap recurses (always an internal node, because leaf
       intervals are single buckets). Left-first recursion emits roots
       in bucket order, giving O(log B) roots on a balanced tree. *)
    let roots = Stdx.Vec.create () in
    let rec go idx blo bhi =
      if first <= blo && bhi <= last + 1 then
        Stdx.Vec.push roots t.nodes.(idx).Sqldb.Range_tree.tag
      else if bhi <= first || blo > last then ()
      else begin
        let nd = t.nodes.(idx) in
        let mid = blo + ((bhi - blo) / 2) in
        go nd.Sqldb.Range_tree.left blo mid;
        go nd.Sqldb.Range_tree.right mid bhi
      end
    in
    go 0 0 b;
    { roots = Stdx.Vec.to_array roots; first_bucket = first; last_bucket = last }
  end

(* Client-side expansion of a cover to its leaf bucket tags, in bucket
   order — the reference the differential/qcheck suites compare against
   [Range_index.tags_for_range]. *)
let leaf_tags t cov =
  Array.to_list
    (Array.concat
       (Array.to_list
          (Array.map
             (fun root ->
               match Sqldb.Range_tree.traverse t.tree ~root with
               | Some (leaves, _) -> leaves
               | None -> [||])
             cov.roots)))
