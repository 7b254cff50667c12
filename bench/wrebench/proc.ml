(* The wre_server child and the scratch directories a run creates. Both
   are registered as soon as they exist and torn down on every way out:
   normal return, an exception, SIGINT or SIGTERM. *)

let children : int list ref = ref []
let scratch : string list ref = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let forget pid = children := List.filter (( <> ) pid) !children

let reap pid =
  (try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ());
  forget pid

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children;
  List.iter rm_rf !scratch;
  scratch := []

let install () =
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

let make_scratch ~out =
  let dir = Filename.concat out (Printf.sprintf "tmp.%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  scratch := dir :: !scratch;
  dir

let spawn exe args =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  pid

(* Poll the socket until the server answers Hello with Welcome. *)
let await_welcome ~pid ~socket =
  let deadline = Stdx.Clock.now_ns () +. 120e9 in
  let rec go () =
    match Server.Client.connect ~client_name:"wrebench" ~socket_path:socket () with
    | Ok c -> Server.Client.close c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            failwith "wrebench: wre_server exited before serving"
        | exception Unix.Unix_error _ -> ());
        if Stdx.Clock.now_ns () > deadline then failwith ("wrebench: no Welcome from wre_server: " ^ e);
        Thread.delay 0.001;
        go ()
  in
  go ()

(* Start wre_server with only --dir and --socket, so its defaults are
   what gets measured; return once it serves. *)
let start_server ~exe ~dir ~socket =
  let pid = spawn exe [ "--dir"; dir; "--socket"; socket ] in
  await_welcome ~pid ~socket;
  pid

let stop pid signal =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  let deadline = Stdx.Clock.now_ns () +. 30e9 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Stdx.Clock.now_ns () < deadline ->
        Thread.delay 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
    | _ -> forget pid
    | exception Unix.Unix_error _ -> forget pid
  in
  wait ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.0
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
        nan
        (String.split_on_char '\n' status)

let file_bytes path = match Unix.stat path with s -> s.Unix.st_size | exception Unix.Unix_error _ -> 0
