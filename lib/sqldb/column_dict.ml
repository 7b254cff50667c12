(* lint: guarded-by the owning table's writer lock — a dictionary is
   private to one [Table.t] and is only mutated inside [Table.mutate];
   frozen views share the immutable prefix of the value and flag
   arrays (see [freeze]). *)

(* Per-column dictionary of interned values (EncDBDB-style dictionary
   encoding). Repeated ciphertext/tag bytes are stored once; rows hold
   small integer ids instead. Heavy-tailed SPARTA tag columns repeat a
   lot, so the dictionary wins big there; ciphertext columns with
   per-row random nonces never repeat, so interning would be pure
   hash-table overhead — the dictionary watches its own hit rate and
   permanently drops the intern table once the column is evidently
   unique-ish ("raw mode": every append is a fresh entry, accounted as
   inline column storage rather than dictionary storage).

   Layout: an entry is one slot in each of three parallel arrays, so a
   raw-mode cell costs its value and nothing else on the heap. The
   values array holds [hole] at vacuumed ids, the [rcs] array holds
   reference counts, and [flags] holds one byte per id, [accounted] when
   the entry was created while interning.

   Concurrency contract: entry ids are never remapped or reused. The
   values and flag arrays are only ever (a) written in place at indexes
   past every frozen length, or (b) replaced by fresh arrays, by
   [vacuum] (values only) and [grow] (all three), which leave the old
   ones to existing views. A [frozen] handle therefore stays valid
   forever without copying. Reference counts are only touched under the
   owning table's writer lock and are never read through a frozen
   handle. *)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* The value slot of a vacuumed id. Allocated at run time, so no value
   a caller holds is physically equal to it; [get] refuses it, so none
   ever will be. *)
let hole : Value.t = Value.Blob (String.make 1 '\000')

let accounted = '\001'

type t = {
  mutable values : Value.t array;  (* [hole] = vacuumed; ids stable *)
  mutable rcs : int array;  (* references from non-reclaimed heap slots *)
  mutable flags : Bytes.t;  (* [accounted]: storage lives in the dictionary *)
  mutable len : int;  (* ids allocated so far (monotone) *)
  mutable intern_tbl : int VH.t option;  (* [None] once raw mode is entered *)
  mutable appends : int;  (* total interns ever (monotone) — drives raw-mode switch *)
  mutable live : int;  (* non-hole entries *)
  mutable value_bytes : int;  (* Σ Value.heap_bytes over non-hole entries *)
  mutable overhead_bytes : int;  (* dictionary-resident storage, see [overhead_bytes] *)
}

(* Directory cost per resident entry: one 8-byte slot pointing at the
   value, the same word-per-tuple model the heap uses. *)
let dir_entry_bytes = 8

(* Re-check the hit rate once the column has seen this many appends;
   if fewer than 1 in 8 appends deduplicated, stop interning. *)
let probation = 4096

let width_for n = if n <= 0x100 then 1 else if n <= 0x1_0000 then 2 else 4

let create () =
  {
    values = [||];
    rcs = [||];
    flags = Bytes.empty;
    len = 0;
    intern_tbl = Some (VH.create 64);
    appends = 0;
    live = 0;
    value_bytes = 0;
    overhead_bytes = 0;
  }

let size t = t.len
let live_entries t = t.live
let value_bytes t = t.value_bytes
let overhead_bytes t = t.overhead_bytes
let appends t = t.appends
let intern_on t = t.intern_tbl <> None
let id_width t = width_for t.len

let check t id =
  if id < 0 || id >= t.len then
    invalid_arg (Printf.sprintf "Column_dict: id %d out of bounds (len %d)" id t.len);
  if t.values.(id) == hole then
    invalid_arg (Printf.sprintf "Column_dict: id %d is a vacuumed hole" id)

let get t id =
  check t id;
  t.values.(id)

let rc t id =
  check t id;
  t.rcs.(id)

let is_accounted t id =
  check t id;
  Bytes.get t.flags id = accounted

(* Resident bytes of one entry, for the live/value/overhead totals. *)
let account t v ~acc =
  let vb = Value.heap_bytes v in
  t.live <- t.live + 1;
  t.value_bytes <- t.value_bytes + vb;
  if acc then t.overhead_bytes <- t.overhead_bytes + vb + dir_entry_bytes

let grow t =
  let cap = Array.length t.values in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let values = Array.make new_cap hole in
  Array.blit t.values 0 values 0 t.len;
  let rcs = Array.make new_cap 0 in
  Array.blit t.rcs 0 rcs 0 t.len;
  let flags = Bytes.make new_cap '\000' in
  Bytes.blit t.flags 0 flags 0 t.len;
  t.values <- values;
  t.rcs <- rcs;
  t.flags <- flags

let add_fresh t v ~acc =
  if t.len = Array.length t.values then grow t;
  let id = t.len in
  t.values.(id) <- v;
  t.rcs.(id) <- 1;
  if acc then Bytes.set t.flags id accounted;
  t.len <- id + 1;
  account t v ~acc;
  id

let intern t v =
  (match t.intern_tbl with
  | Some _ when t.appends >= probation && t.len * 8 > t.appends * 7 ->
      (* Nearly every append allocated a new entry: this column does
         not repeat (unique nonces), so drop the hash table for good.
         The decision depends only on (appends, len), both serialized
         in snapshots, so a restored column flips at the same point a
         crash-free run would. *)
      t.intern_tbl <- None
  | _ -> ());
  t.appends <- t.appends + 1;
  match t.intern_tbl with
  | Some tbl -> (
      match VH.find_opt tbl v with
      | Some id ->
          t.rcs.(id) <- t.rcs.(id) + 1;
          id
      | None ->
          let id = add_fresh t v ~acc:true in
          VH.replace tbl v id;
          id)
  | None -> add_fresh t v ~acc:false

let release t id =
  check t id;
  if t.rcs.(id) <= 0 then
    invalid_arg (Printf.sprintf "Column_dict.release: id %d already at rc 0" id);
  t.rcs.(id) <- t.rcs.(id) - 1

let addref t id =
  check t id;
  t.rcs.(id) <- t.rcs.(id) + 1

(* Drop rc=0 entries. Copy-on-write: frozen views keep the old values
   array; surviving ids are unchanged and holes are never reused, so no
   id stored anywhere (rows, indexes, older views) is remapped. The
   flags of a hole are never read again, so the flag array stays
   shared. *)
let vacuum t =
  let values = Array.copy t.values in
  let tbl = match t.intern_tbl with Some _ -> Some (VH.create 64) | None -> None in
  t.live <- 0;
  t.value_bytes <- 0;
  t.overhead_bytes <- 0;
  for i = 0 to t.len - 1 do
    let v = values.(i) in
    if v != hole then
      if t.rcs.(i) > 0 then begin
        (match tbl with Some tb -> VH.replace tb v i | None -> ());
        account t v ~acc:(Bytes.get t.flags i = accounted)
      end
      else values.(i) <- hole
  done;
  t.values <- values;
  t.intern_tbl <- tbl

(* Frozen handle: the value and flag arrays plus the lengths/counters
   at freeze time. Readers only dereference ids below [f_len], all of
   which are immutable forever (see the concurrency contract above). *)
type frozen = {
  f_values : Value.t array;
  f_flags : Bytes.t;
  f_len : int;
  f_appends : int;
  f_intern_on : bool;
}

let freeze t =
  {
    f_values = t.values;
    f_flags = t.flags;
    f_len = t.len;
    f_appends = t.appends;
    f_intern_on = intern_on t;
  }

let frozen_len f = f.f_len

let frozen_check f id =
  if id < 0 || id >= f.f_len then
    invalid_arg (Printf.sprintf "Column_dict: frozen id %d out of bounds (len %d)" id f.f_len)

let frozen_get f id =
  frozen_check f id;
  let v = f.f_values.(id) in
  if v == hole then invalid_arg (Printf.sprintf "Column_dict: frozen id %d is a vacuumed hole" id);
  v

let frozen_is_accounted f id =
  frozen_check f id;
  f.f_values.(id) != hole && Bytes.get f.f_flags id = accounted

let frozen_entry f id =
  frozen_check f id;
  let v = f.f_values.(id) in
  if v == hole then None else Some (v, Bytes.get f.f_flags id = accounted)

let frozen_appends f = f.f_appends
let frozen_intern_on f = f.f_intern_on
let frozen_id_width f = width_for f.f_len

(* Restore path: rebuild from a serialized entry array. Every rc starts
   at 0 — the caller addrefs once per referencing heap slot, restoring
   the exact counts a crash-free run would hold. *)
let of_entries ~appends ~intern_on ents =
  let n = Array.length ents in
  let cap = max n 1 in
  let t =
    {
      values = Array.make cap hole;
      rcs = Array.make cap 0;
      flags = Bytes.make cap '\000';
      len = n;
      intern_tbl = (if intern_on then Some (VH.create (max 64 n)) else None);
      appends;
      live = 0;
      value_bytes = 0;
      overhead_bytes = 0;
    }
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (v, acc) ->
          t.values.(i) <- v;
          if acc then Bytes.set t.flags i accounted;
          (match t.intern_tbl with Some tb -> VH.replace tb v i | None -> ());
          account t v ~acc
      | None -> ())
    ents;
  t
