(* The measured phase: a closed loop over the wire. One systhread per
   connection, each with its own Server.Client — the client allows one
   outstanding request, and proxy clients are applications blocking on
   each statement. After an unmeasured warm-up pass over each
   connection's reads (it fills the per-plaintext salt caches and the
   server's views), the connections issue their statements in
   lockstep: each waits for the other's reply before sending its next,
   so every read batch the server forms holds one matched pair (see
   [Inputs.deal]) and a statement's latency does not depend on how far
   the connections have drifted apart. They replay their lists in whole
   passes until the deadline has passed (or, with a statement budget,
   until each has run its share). Every reply is checked against the
   oracle. *)

type sample = { op : Inputs.op; ns : float; ok : bool }

type result = {
  samples : sample array;
  wall_s : float;
  errors : string list;  (** the first few failures, for the log *)
}

(* Barrier shared by the connection threads before every statement.
   The last to arrive decides, for everyone, whether another statement
   starts — [more ~steps] — and releases the others; the first crossing
   stamps the start time. *)
type gate = {
  m : Mutex.t;
  cv : Condition.t;
  mutable arrived : int;
  mutable crossings : int;
  mutable go : bool;
  mutable start : float;
}

let cross g n more =
  Mutex.lock g.m;
  let gen = g.crossings in
  g.arrived <- g.arrived + 1;
  if g.arrived = n then begin
    let now = Stdx.Clock.now_ns () in
    if gen = 0 then g.start <- now;
    g.go <- more ~steps:gen ~start:g.start ~now;
    g.arrived <- 0;
    g.crossings <- gen + 1;
    Condition.broadcast g.cv
  end
  else
    while g.crossings = gen do
      Condition.wait g.cv g.m
    done;
  let go = g.go in
  Mutex.unlock g.m;
  go

(* One statement through [query]; the verdict, with a note on failure. *)
let ask query (st : Inputs.stmt) =
  match query st with
  | Error e -> (false, Some (Printf.sprintf "%s: %s" st.sql e))
  | Ok payload ->
      if Inputs.check st.expect payload then (true, None)
      else (false, Some (Printf.sprintf "%s: reply differs from the oracle" st.sql))

(* Drive every connection of [inp], each through its own [connect ()]
   session; shared by the wire run and the in-process replica.
   [on_start] runs once, after the warm-up, while every connection
   waits at the gate. *)
let drive ?(on_start = ignore) (inp : Inputs.t) ~connect ~seconds ~budget =
  let n = Array.length inp.conns in
  let gate =
    { m = Mutex.create (); cv = Condition.create (); arrived = 0; crossings = 0; go = false; start = 0.0 }
  in
  let pass = Array.length inp.conns.(0).slots in
  let per_conn = (budget + n - 1) / n in
  let more ~steps ~start ~now =
    if steps = 0 then on_start ();
    if budget > 0 then steps < per_conn
    else steps mod pass <> 0 || steps = 0 || now < start +. (seconds *. 1e9)
  in
  let errors = Mutex.create () and first_errors = ref [] in
  let note = function
    | None -> ()
    | Some e ->
        Mutex.lock errors;
        if List.length !first_errors < 5 then first_errors := e :: !first_errors;
        Mutex.unlock errors
  in
  let out = Array.make n [] and finish = Array.make n 0.0 in
  let body i =
    let conn = inp.conns.(i) in
    let session = connect () in
    let acc = ref [] in
    let step query =
      let st = Inputs.next conn in
      let (ok, why), ns = Stdx.Clock.time_it (fun () -> ask query st) in
      note why;
      if ok && not (Inputs.is_read st.op) then conn.acked <- st.sql :: conn.acked;
      acc := { op = st.op; ns; ok } :: !acc
    in
    (match session with
    | Ok (query, close) ->
        Fun.protect ~finally:close (fun () ->
            List.iter (fun st -> note (snd (ask query st))) (Inputs.reads conn);
            while cross gate n more do
              step query
            done)
    | Error e ->
        note (Some e);
        acc := [ { op = Inputs.Star; ns = 0.0; ok = false } ];
        while cross gate n more do
          ()
        done);
    out.(i) <- !acc;
    finish.(i) <- Stdx.Clock.now_ns ()
  in
  let threads = List.init n (fun i -> Thread.create body i) in
  List.iter Thread.join threads;
  {
    samples = Array.of_list (List.concat (Array.to_list out));
    wall_s = (Array.fold_left Float.max gate.start finish -. gate.start) /. 1e9;
    errors = List.rev !first_errors;
  }

let client_session ~socket () =
  match Server.Client.connect ~client_name:"wrebench" ~socket_path:socket () with
  | Error e -> Error e
  | Ok c -> Ok ((fun (st : Inputs.stmt) -> Server.Client.query c st.sql), fun () -> Server.Client.close c)

let run (inp : Inputs.t) ~socket ~seconds ~budget =
  drive inp ~connect:(client_session ~socket) ~seconds ~budget

(* Statements outside the measured phase (post-run and post-restart
   checks) over one fresh connection; returns the failures. *)
let verify ~socket stmts =
  match client_session ~socket () with
  | Error e -> [ e ]
  | Ok (query, close) ->
      Fun.protect ~finally:close (fun () -> List.filter_map (fun st -> snd (ask query st)) stmts)
