(** Per-column value dictionaries for the columnar heap.

    Repeated column values (heavy-tailed SPARTA tags, plaintext key
    columns) are stored once and referenced by small integer ids;
    columns that evidently never repeat (ciphertext with per-row random
    nonces) automatically stop interning and fall back to raw appends,
    accounted as inline column storage.

    Ids are dense, stable and never reused: {!vacuum} punches holes
    (copy-on-write, so frozen handles stay valid) but never remaps a
    surviving id. Reference counts track how many non-reclaimed heap
    slots point at each entry; an entry is reclaimed by the next
    {!vacuum} once its count reaches zero.

    Entries are flat: an id indexes one slot in each of three parallel
    arrays (the value, its reference count, its accounted flag byte),
    so an entry costs its value plus about two words, and a raw-mode
    cell carries no box of the dictionary's own.

    Not thread-safe on its own: mutation must happen under the owning
    table's writer lock. {!freeze} hands out an immutable view that any
    domain may read concurrently with further appends. *)

type t

val create : unit -> t

val intern : t -> Value.t -> int
(** Return the id for a value, bumping its reference count — either an
    existing entry (dictionary hit) or a fresh one. After a probation
    period, a column whose appends almost never hit switches to raw
    mode permanently (every append a fresh entry); the switch is a
    deterministic function of the serialized [appends]/[size] state. *)

val get : t -> int -> Value.t
(** Raises [Invalid_argument] for out-of-range ids and vacuumed holes. *)

val release : t -> int -> unit
(** Drop one reference (heap slot reclaimed by vacuum). Raises if the
    count is already zero. *)

val addref : t -> int -> unit
(** Add one reference — the snapshot-restore path, which rebuilds
    counts by walking the restored heap slots. *)

val vacuum : t -> unit
(** Drop every entry with reference count zero. Copy-on-write over the
    values array, so concurrent readers of a {!frozen} handle are
    unaffected; ids are never remapped or reused. *)

(* Sizing and accounting. *)

val size : t -> int
(** Ids allocated so far (monotone, holes included). *)

val live_entries : t -> int
val value_bytes : t -> int
(** Σ [Value.heap_bytes] over resident (non-hole) entries. *)

val overhead_bytes : t -> int
(** Bytes of dictionary-resident storage: value bytes plus an 8-byte
    directory slot for every entry created while interning. Raw-mode
    entries contribute nothing here — their storage is accounted
    inline in the heap tuples that reference them. *)

val appends : t -> int
val intern_on : t -> bool
val is_accounted : t -> int -> bool
(** Whether the entry's storage lives in the dictionary (created while
    interning) rather than inline in the referencing tuples. *)

val width_for : int -> int
(** Bytes needed for an id out of [n] allocated: 1, 2 or 4. *)

val id_width : t -> int
(** [width_for (size t)] — the width a tuple appended now would use. *)

val rc : t -> int -> int
(** Current reference count (test hook). *)

(* Frozen handles (shared with read views). *)

type frozen

val freeze : t -> frozen
(** O(1): shares the value and flag arrays by pointer. Valid forever —
    later appends land past the frozen length, vacuum never mutates a
    shared slot, and a grow copies into fresh arrays and leaves the old
    ones to existing views. *)

val frozen_len : frozen -> int
val frozen_get : frozen -> int -> Value.t
val frozen_entry : frozen -> int -> (Value.t * bool) option
(** [(value, accounted)], or [None] for a hole. *)

val frozen_is_accounted : frozen -> int -> bool
val frozen_appends : frozen -> int
val frozen_intern_on : frozen -> bool
val frozen_id_width : frozen -> int

val of_entries : appends:int -> intern_on:bool -> (Value.t * bool) option array -> t
(** Rebuild from serialized entries (id order, [None] = hole). All
    reference counts start at zero; callers {!addref} once per
    restored heap slot. *)
