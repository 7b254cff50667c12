(* A fixed pool of worker domains with chunked fan-out. The pool keeps
   [domains - 1] spawned domains blocked on a job queue; the caller of
   [parallel_init] is the remaining participant, so a pool created with
   [~domains:1] never spawns anything and degenerates to [Array.init]
   on the calling domain. *)

type job = Job of (unit -> unit) | Quit

type t = {
  domains : int; (* total parallelism, including the calling domain *)
  jobs : job Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t array;
  mutable closed : bool;
}

let submit t job =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Task_pool: pool is shut down"
  end;
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.jobs do
    Condition.wait t.nonempty t.mutex
  done;
  let job = Queue.pop t.jobs in
  Mutex.unlock t.mutex;
  match job with
  | Quit -> ()
  | Job f ->
      f ();
      worker_loop t

let create ~domains =
  if domains < 1 then invalid_arg "Task_pool.create: domains must be >= 1";
  let t =
    {
      domains;
      jobs = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      workers = [||];
      closed = false;
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let domains t = t.domains

let shutdown t =
  let already =
    Mutex.lock t.mutex;
    let c = t.closed in
    if not c then begin
      t.closed <- true;
      Array.iter (fun _ -> Queue.push Quit t.jobs) t.workers;
      Condition.broadcast t.nonempty
    end;
    Mutex.unlock t.mutex;
    c
  in
  if not already then Array.iter Domain.join t.workers

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let parallel_init t n f =
  if n < 0 then invalid_arg "Task_pool.parallel_init: negative length";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let m = Mutex.create () in
    let finished = Condition.create () in
    let next = ref 0 in
    let pending = ref 0 in
    let err = ref None in
    (* The first failure wins; its backtrace is captured at the catch
       site so the caller's re-raise points at the chunk that died, not
       at [parallel_init] itself. *)
    let record_err e bt =
      Mutex.lock m;
      if !err = None then err := Some (e, bt);
      Mutex.unlock m
    in
    (* Every participant (caller + helpers) pulls the next unclaimed
       chunk index until none remain or a chunk has failed. *)
    let rec body () =
      Mutex.lock m;
      let i = !next in
      let stop = i >= n || !err <> None in
      if not stop then next := i + 1;
      Mutex.unlock m;
      if not stop then begin
        (match f i with
        | v -> results.(i) <- Some v
        | exception e -> record_err e (Printexc.get_raw_backtrace ()));
        body ()
      end
    in
    let helper () =
      body ();
      Mutex.lock m;
      decr pending;
      if !pending = 0 then Condition.broadcast finished;
      Mutex.unlock m
    in
    let helpers = min (t.domains - 1) (n - 1) in
    Mutex.lock m;
    pending := helpers;
    Mutex.unlock m;
    (* A concurrent [shutdown] can make [submit] raise part-way through
       the fan-out. Helpers that never reached the queue will never run
       [decr pending], so waiting on their slots would block forever:
       roll the unqueued slots back and treat the submission failure
       like any chunk error — the caller still drains the helpers that
       did get queued before raising. *)
    let queued = ref 0 in
    (try
       for _ = 1 to helpers do
         submit t (Job helper);
         incr queued
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock m;
       pending := !pending - (helpers - !queued);
       if !err = None then err := Some (e, bt);
       Mutex.unlock m);
    body ();
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait finished m
    done;
    Mutex.unlock m;
    (match !err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Task_pool.parallel_init: chunk produced no result")
      results
  end

let parallel_iter t n f = ignore (parallel_init t n (fun i -> f i))
