module Obs = Bose_obs.Obs

let g_domains = Obs.Gauge.make "par.domains"
let g_tasks = Obs.Gauge.make "par.tasks"
let g_idle = Obs.Gauge.make "par.steal_idle_ns"

(* Set in every worker domain: lets [run] reject nested parallelism
   (a worker blocking on a batch it must itself help drain). *)
let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type t = {
  mu : Mutex.t;
  work : Condition.t;  (* a new batch is available, or stop *)
  done_c : Condition.t;  (* the current batch completed *)
  size : int;  (* total parallelism, owner included *)
  mutable batch : (int -> unit) option;
  mutable tasks : int;
  mutable next : int;  (* shared claim cursor *)
  mutable unfinished : int;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable closed : bool;
  mutable running : bool;  (* a batch is in flight (owner re-entrancy guard) *)
  busy : float array;  (* per-slot task seconds this batch; slot 0 = owner *)
  sinks : Obs.Local.sink array;  (* one per worker domain *)
  mutable workers : unit Domain.t array;
}

(* Claim-and-run loop shared by owner (slot 0) and workers. Called with
   the mutex held; returns with it held. Task exceptions are recorded
   (lowest task index wins) and never escape a worker. *)
let drain t slot =
  while t.next < t.tasks do
    let i = t.next in
    t.next <- i + 1;
    let f = match t.batch with Some f -> f | None -> assert false in
    Mutex.unlock t.mu;
    let t0 = Obs.now () in
    (try f i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mu;
       (match t.failure with
        | Some (j, _, _) when j <= i -> ()
        | Some _ | None -> t.failure <- Some (i, e, bt));
       Mutex.unlock t.mu);
    let dt = Obs.now () -. t0 in
    Mutex.lock t.mu;
    t.busy.(slot) <- t.busy.(slot) +. dt;
    t.unfinished <- t.unfinished - 1;
    if t.unfinished = 0 then Condition.broadcast t.done_c
  done

let worker t slot sink () =
  Domain.DLS.set worker_flag true;
  Obs.Local.install sink;
  Mutex.lock t.mu;
  while not t.stop do
    if t.next < t.tasks then drain t slot else Condition.wait t.work t.mu
  done;
  Mutex.unlock t.mu

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      done_c = Condition.create ();
      size = domains;
      batch = None;
      tasks = 0;
      next = 0;
      unfinished = 0;
      failure = None;
      stop = false;
      closed = false;
      running = false;
      busy = Array.make domains 0.;
      sinks = Array.init (domains - 1) (fun _ -> Obs.Local.create ());
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i -> Domain.spawn (worker t (i + 1) t.sinks.(i)));
  t

let domains t = t.size

let finish_telemetry t ~tasks ~wall =
  (* Merge order is worker order, so merged telemetry is deterministic
     for a deterministic task set. *)
  Array.iter Obs.Local.merge t.sinks;
  let idle = ref 0. in
  Array.iter (fun b -> idle := !idle +. Float.max 0. (wall -. b)) t.busy;
  Obs.Gauge.set g_domains (float_of_int t.size);
  Obs.Gauge.set g_tasks (float_of_int tasks);
  Obs.Gauge.set g_idle (!idle *. 1e9)

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if Domain.DLS.get worker_flag then
    invalid_arg "Pool.run: nested parallelism (called from a pool worker)";
  if t.closed then invalid_arg "Pool.run: pool is shut down";
  if tasks = 0 then ()
  else if t.size = 1 then begin
    if t.running then
      invalid_arg "Pool.run: nested parallelism (pool already running a batch)";
    t.running <- true;
    Fun.protect
      ~finally:(fun () -> t.running <- false)
      (fun () ->
         for i = 0 to tasks - 1 do
           f i
         done);
    Obs.Gauge.set g_domains 1.;
    Obs.Gauge.set g_tasks (float_of_int tasks);
    Obs.Gauge.set g_idle 0.
  end
  else begin
    let t_start = Obs.now () in
    Mutex.lock t.mu;
    if t.running then begin
      Mutex.unlock t.mu;
      invalid_arg "Pool.run: nested parallelism (pool already running a batch)"
    end;
    t.running <- true;
    t.batch <- Some f;
    t.tasks <- tasks;
    t.next <- 0;
    t.unfinished <- tasks;
    t.failure <- None;
    Array.fill t.busy 0 t.size 0.;
    Condition.broadcast t.work;
    drain t 0;
    while t.unfinished > 0 do
      Condition.wait t.done_c t.mu
    done;
    t.batch <- None;
    t.tasks <- 0;
    t.next <- 0;
    let failure = t.failure in
    t.failure <- None;
    t.running <- false;
    Mutex.unlock t.mu;
    finish_telemetry t ~tasks ~wall:(Obs.now () -. t_start);
    match failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t ~tasks:n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let chunked_iter t ~chunks ~n f =
  if chunks < 1 then invalid_arg "Pool.chunked_iter: chunks must be >= 1";
  if n < 0 then invalid_arg "Pool.chunked_iter: negative n";
  if n > 0 then begin
    let chunks = min chunks n in
    let base = n / chunks and extra = n mod chunks in
    let lo c = (c * base) + min c extra in
    run t ~tasks:chunks (fun c -> f ~chunk:c ~lo:(lo c) ~hi:(lo (c + 1)))
  end

let shutdown t =
  Mutex.lock t.mu;
  if t.closed then Mutex.unlock t.mu
  else begin
    t.closed <- true;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.workers
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
