(** The storage engine's only door to the filesystem.

    All raw writes, fsyncs and renames in the repository live here
    (enforced by lint rule R6), each one gated on {!Failpoints} so
    crash tests can kill the process at any byte or sync boundary. The
    module keeps a registry of open files with their last-fsynced
    length; a simulated crash with [lose_unsynced] truncates each file
    back to that length — the bytes the page cache never made durable.

    Named failpoint events used by the engine: ["wal.fsync"],
    ["snapshot.write"], ["snapshot.fsync"], ["snapshot.rename"],
    ["dir.fsync"], ["atomic.write"], ["atomic.fsync"],
    ["atomic.rename"]. *)

type file

val open_append : string -> file
(** Open (creating if needed) positioned at the end; the existing
    content counts as synced. *)

val open_trunc : string -> file
(** Open, creating or truncating to empty. *)

val size : file -> int
val path : file -> string

val write : ?point:string -> file -> string -> unit
(** Append the bytes. Interrupted and transient syscalls
    ([EINTR]/[EAGAIN]) are retried; the {!size} bookkeeping is advanced
    syscall by syscall, so if a fatal error (or an injected
    {!Failpoints.arm_syscalls} outcome) aborts the loop mid-string, the
    recorded size still matches the bytes that actually reached the fd.
    A [Cut] failpoint may land mid-string: the surviving prefix is
    written (a torn write), then {!crash}. *)

val fsync : ?point:string -> file -> unit
(** Make written bytes durable. An armed event failpoint crashes {e
    instead of} syncing — the classic lost-page-cache scenario. *)

val truncate : file -> int -> unit
val close : file -> unit

val rename : ?point:string -> string -> string -> unit
(** [rename src dst], atomic on POSIX; an event failpoint crashes
    before the rename happens. *)

val fsync_dir : ?point:string -> string -> unit
(** Sync a directory so a completed rename survives power loss. *)

val crash : unit -> 'a
(** Simulate the process dying now: if the failpoint asked for it,
    truncate every open file to its synced length (dropping unsynced
    bytes), close all descriptors, and raise {!Failpoints.Crash}.
    Called by the primitives above; exposed for tests. *)

val atomic_write_text : path:string -> string -> unit
(** Crash-safe whole-file publish: write [path ^ ".tmp"], fsync,
    rename over [path], fsync the directory. At every crash point the
    destination holds either its old content or the complete new
    content, never a prefix. Used for every report/sidecar file the
    repo emits (BENCH_*.json, CSV sidecars). *)

val read_file : string -> string option
(** Whole-file read; [None] if absent. *)

(** {2 Descriptor-level primitives}

    For non-file descriptors — sockets, pipes — that need the same
    hardened syscall discipline as the storage files but none of the
    size/synced bookkeeping. The server's wire protocol rides on these
    (and lint rule R6 keeps every raw write in the repo behind this
    module). *)

val write_fd_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying [EINTR]/[EAGAIN]/short writes
    until every byte is accepted. Intended for blocking descriptors;
    fatal errors ([EPIPE], …) propagate as [Unix.Unix_error]. *)

val write_fd_bytes : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_fd_bytes fd b off len]: {!write_fd_all} of the [len] bytes
    of [b] at [off], without copying them. [b] must not change until it
    returns. Raises [Invalid_argument] if the range is not inside
    [b]. *)

val read_fd : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read] retrying [EINTR]/[EAGAIN]; returns 0 only at EOF. *)
