(* Weight-balanced tree (Adams; the delta = 3 / ratio = 2 parameters of
   Haskell's Data.Map). A node's own entry count is not stored: it is
   [entries] minus its children's, which keeps nodes at six fields. *)

type t =
  | Empty
  | Node of { l : t; key : Value.t; ids : int list; (* newest first *) r : t; size : int; entries : int }

let empty = Empty
let keys = function Empty -> 0 | Node n -> n.size
let entries = function Empty -> 0 | Node n -> n.entries
let own = function Empty -> 0 | Node n -> n.entries - entries n.l - entries n.r

let node l key ids n r =
  Node { l; key; ids; r; size = keys l + keys r + 1; entries = entries l + entries r + n }

let delta = 3
let ratio = 2

(* Restore the weight invariant after one insertion or deletion below
   [l] or [r]; the impossible shapes fall through to a plain node. *)
let balance l key ids n r =
  let sl = keys l and sr = keys r in
  if sl + sr <= 1 then node l key ids n r
  else if sr > delta * sl then
    match r with
    | Node { l = rl; key = rk; ids = rids; r = rr; _ } when keys rl < ratio * keys rr ->
        node (node l key ids n rl) rk rids (own r) rr
    | Node { l = Node { l = rll; key = rlk; ids = rlids; r = rlr; _ } as rl; key = rk; ids = rids; r = rr; _ } ->
        node (node l key ids n rll) rlk rlids (own rl) (node rlr rk rids (own r) rr)
    | _ -> node l key ids n r
  else if sl > delta * sr then
    match l with
    | Node { l = ll; key = lk; ids = lids; r = lr; _ } when keys lr < ratio * keys ll ->
        node ll lk lids (own l) (node lr key ids n r)
    | Node { l = ll; key = lk; ids = lids; r = Node { l = lrl; key = lrk; ids = lrids; r = lrr; _ } as lr; _ } ->
        node (node ll lk lids (own l) lrl) lrk lrids (own lr) (node lrr key ids n r)
    | _ -> node l key ids n r
  else node l key ids n r

let rec add t key id =
  match t with
  | Empty -> node Empty key [ id ] 1 Empty
  | Node x ->
      let c = Value.compare key x.key in
      if c = 0 then Node { x with ids = id :: x.ids; entries = x.entries + 1 }
      else if c < 0 then balance (add x.l key id) x.key x.ids (own t) x.r
      else balance x.l x.key x.ids (own t) (add x.r key id)

(* Detach the smallest key of the tree (l, key, ids, n, r). *)
let rec pop_min l key ids n r =
  match l with
  | Empty -> (key, ids, n, r)
  | Node x ->
      let k, i, m, l' = pop_min x.l x.key x.ids (own l) x.r in
      (k, i, m, balance l' key ids n r)

let glue l r =
  match r with
  | Empty -> l
  | Node x ->
      let k, i, m, r' = pop_min x.l x.key x.ids (own r) x.r in
      balance l k i m r'

let rec remove t key id =
  match t with
  | Empty -> (t, 0)
  | Node x ->
      let c = Value.compare key x.key in
      if c < 0 then
        let l', gone = remove x.l key id in
        if gone = 0 then (t, 0) else (balance l' x.key x.ids (own t) x.r, gone)
      else if c > 0 then
        let r', gone = remove x.r key id in
        if gone = 0 then (t, 0) else (balance x.l x.key x.ids (own t) r', gone)
      else
        let kept = List.filter (fun i -> i <> id) x.ids in
        let gone = own t - List.length kept in
        if gone = 0 then (t, 0)
        else
          match kept with
          | [] -> (glue x.l x.r, gone)
          | _ -> (Node { x with ids = kept; entries = x.entries - gone }, gone)

(* Copy a key's ids (newest first, [n] of them) into [out] from [pos]
   on, oldest first. *)
let blit_ids ids n out pos = List.iteri (fun i id -> out.(pos + n - 1 - i) <- id) ids

let find t key =
  let rec go t before =
    match t with
    | Empty -> (before, [||])
    | Node x ->
        let c = Value.compare key x.key in
        if c < 0 then go x.l before
        else if c > 0 then go x.r (before + x.entries - entries x.r)
        else
          let n = own t in
          let out = Array.make n 0 in
          blit_ids x.ids n out 0;
          (before + entries x.l, out)
  in
  go t 0

(* Entries whose key sorts before [key] ([strict]) or at or before it. *)
let rec rank ~strict t key =
  match t with
  | Empty -> 0
  | Node x ->
      let c = Value.compare key x.key in
      if c < 0 || (strict && c = 0) then rank ~strict x.l key
      else x.entries - entries x.r + rank ~strict x.r key

let range t ?lo ?hi () =
  let first = match lo with None -> 0 | Some v -> rank ~strict:true t v in
  let last = match hi with None -> entries t | Some v -> rank ~strict:false t v in
  let out = Array.make (max 0 (last - first)) 0 in
  let ge k = match lo with None -> true | Some v -> Value.compare k v >= 0 in
  let le k = match hi with None -> true | Some v -> Value.compare k v <= 0 in
  let pos = ref 0 in
  let rec go t =
    match t with
    | Empty -> ()
    | Node x ->
        let ge = ge x.key and le = le x.key in
        if ge then go x.l;
        if ge && le then begin
          let n = own t in
          blit_ids x.ids n out !pos;
          pos := !pos + n
        end;
        if le then go x.r
  in
  if Array.length out > 0 then go t;
  (first, out)

let union_ids arrays =
  let all = Array.concat arrays in
  Array.sort Int.compare all;
  let n = Array.length all in
  if n = 0 then all
  else begin
    (* Compact the duplicates in place: [kept] ids are distinct so far. *)
    let kept = ref 1 in
    for i = 1 to n - 1 do
      if all.(i) <> all.(!kept - 1) then begin
        all.(!kept) <- all.(i);
        incr kept
      end
    done;
    Array.sub all 0 !kept
  end
