type file = {
  fd : Unix.file_descr;
  f_path : string;
  mutable size : int;
  mutable synced : int;
  mutable open_ : bool;
}

let path f = f.f_path
let size f = f.size

(* Every open file, so a simulated crash can truncate them all back to
   their synced lengths and release the descriptors. *)
let registry : (string, file) Hashtbl.t = Hashtbl.create 8

let register f = Hashtbl.replace registry f.f_path f

let unregister f =
  match Hashtbl.find_opt registry f.f_path with
  | Some g when g == f -> Hashtbl.remove registry f.f_path
  | _ -> ()

let crash () =
  if Failpoints.crash_lose_unsynced () then
    Hashtbl.iter
      (fun _ f ->
        if f.open_ && f.synced < f.size then Unix.ftruncate f.fd f.synced)
      registry;
  Hashtbl.iter
    (fun _ f ->
      if f.open_ then begin
        f.open_ <- false;
        Unix.close f.fd
      end)
    registry;
  Hashtbl.reset registry;
  raise (Failpoints.Crash "simulated crash")

let open_append p =
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let f = { fd; f_path = p; size; synced = size; open_ = true } in
  register f;
  f

let open_trunc p =
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let f = { fd; f_path = p; size = 0; synced = 0; open_ = true } in
  register f;
  f

(* The one write loop everything rides on. A server process that
   handles signals sees EINTR (and, on sockets, EAGAIN) from write(2)
   at any moment; treat those as "try again", never as failure. Every
   individual attempt consults the syscall failpoint so tests can
   script short writes and transient/fatal errnos. [progress] observes
   the running byte count after each successful syscall — a caller
   whose bookkeeping must mirror the kernel's view of the file (sizes
   the crash-recovery invariants rest on) stays exact even when a
   later attempt raises a fatal error mid-string. *)
let write_retry ~progress fd s pos len =
  let written = ref 0 in
  while !written < len do
    match
      (match Failpoints.on_syscall ~requested:(len - !written) with
      | `Write k -> Unix.write_substring fd s (pos + !written) k
      | `Raise e -> raise (Unix.Unix_error (e, "write", "")))
    with
    | n ->
        written := !written + n;
        progress !written
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  done

let write ?(point = "write") f s =
  if Failpoints.on_event point then crash ();
  let n = String.length s in
  let base = f.size in
  (* Progress lands in [f.size] syscall by syscall: if the loop raises
     after a partial write, [size] already counts the bytes that
     reached the fd, so the size/synced bookkeeping — and the simulated
     crash truncation that relies on it — never diverges from the file. *)
  let progress w = f.size <- base + w in
  match Failpoints.on_write n with
  | `All -> write_retry ~progress f.fd s 0 n
  | `Partial k ->
      write_retry ~progress f.fd s 0 k;
      crash ()

let write_fd_all fd s = write_retry ~progress:ignore fd s 0 (String.length s)

(* The caller does not write [b] until this returns, so reading it as a
   string meanwhile is sound. *)
let write_fd_bytes fd b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Io.write_fd_bytes";
  write_retry ~progress:ignore fd (Bytes.unsafe_to_string b) off len

let rec read_fd fd buf pos len =
  match Unix.read fd buf pos len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      read_fd fd buf pos len

let fsync ?(point = "fsync") f =
  if Failpoints.on_event point then crash ();
  Unix.fsync f.fd;
  f.synced <- f.size

let truncate f n =
  Unix.ftruncate f.fd n;
  ignore (Unix.lseek f.fd n Unix.SEEK_SET);
  f.size <- n;
  f.synced <- min f.synced n

let close f =
  if f.open_ then begin
    f.open_ <- false;
    unregister f;
    Unix.close f.fd
  end

let rename ?(point = "rename") src dst =
  if Failpoints.on_event point then crash ();
  Unix.rename src dst

let fsync_dir ?(point = "dir.fsync") dir =
  if Failpoints.on_event point then crash ();
  (* Directory fsync makes the rename itself durable. Some filesystems
     refuse fsync on O_RDONLY directory fds; treat that as a no-op. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let atomic_write_text ~path content =
  let tmp = path ^ ".tmp" in
  let f = open_trunc tmp in
  write ~point:"atomic.write" f content;
  fsync ~point:"atomic.fsync" f;
  close f;
  rename ~point:"atomic.rename" tmp path;
  fsync_dir (Filename.dirname path)

let read_file p =
  if Sys.file_exists p then Some (In_channel.with_open_bin p In_channel.input_all) else None
