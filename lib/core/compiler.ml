module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Lattice = Bose_hardware.Lattice
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Obs = Bose_obs.Obs
module Lint = Bose_lint.Lint
module Flow = Bose_flow.Flow
module Coupling = Bose_hardware.Coupling
module Target = Bose_hardware.Target
module Rng = Bose_util.Rng
module Pool = Bose_par.Pool

let c_compiles = Obs.Counter.make "compile.runs"
let c_batch_jobs = Obs.Counter.make "compile.batch_jobs"
let g_modes = Obs.Gauge.make "compile.modes"
let g_plan_rotations = Obs.Gauge.make "compile.plan_rotations"
let g_predicted_fidelity = Obs.Gauge.make "compile.predicted_fidelity"
let g_bytes_allocated = Obs.Gauge.make "compile.bytes_allocated"
let g_mats_allocated = Obs.Gauge.make "compile.mats_allocated"
let g_ws_hits = Obs.Gauge.make "compile.ws_hits"
let g_ws_misses = Obs.Gauge.make "compile.ws_misses"
let g_bytes_offheap = Obs.Gauge.make "mat.bytes_offheap"

type effort = Pass.effort = Fast | Standard

type timings = { decomposition_s : float; total_s : float }

type t = {
  config : Config.t;
  tau : float;
  device : Lattice.t;
  target : Target.t option;
  pattern : Pattern.t;
  mapping : Mapping.t;
  plan : Plan.t;
  policy : Dropout.policy option;
  timings : timings;
  trace : Lint.pipeline_trace;
}

(* The driver: build a compile context, execute the registered pipeline
   over it, and assemble the result from the context's artifact cells.
   The per-stage work lives in Pass.{embed,map,decompose,dropout}; this
   function only sequences and observes. *)
let drive ?(disabled = []) ?target ~effort ~tau ~rng ~device ~config ~source u =
  let n = Mat.rows u in
  Obs.Counter.incr c_compiles;
  Obs.Gauge.observe_max g_modes (float_of_int n);
  (* One workspace per compile: mapping's candidate/polish eliminations
     share Mat.Slot.elimination, dropout's fidelity replays
     Mat.Slot.replay. Allocation gauges make workspace regressions
     visible in BENCH_TELEMETRY.json. *)
  let ws = Mat.workspace () in
  let bytes0 = Gc.allocated_bytes () in
  let mats0 = Mat.allocations () in
  let offheap0 = Mat.bytes_offheap () in
  let ctx =
    Pass.context ~effort ~tau
      ?target:(Option.map (fun (t : Target.t) -> t.Target.name) target)
      ~rng ~device ~config ~source ~ws u
  in
  let trace = Pipeline.run ~disabled Pipeline.default ctx in
  let pattern = Pass.pattern_exn ctx in
  let mapping = Pass.mapping_exn ctx in
  let plan = Pass.plan_exn ctx in
  let policy = ctx.Pass.policy in
  Obs.Gauge.set g_plan_rotations (float_of_int (Plan.rotation_count plan));
  Obs.Gauge.set g_predicted_fidelity
    (match policy with None -> 1. | Some p -> p.Dropout.expected_fidelity);
  Obs.Gauge.set g_bytes_allocated (Gc.allocated_bytes () -. bytes0);
  Obs.Gauge.set g_mats_allocated (float_of_int (Mat.allocations () - mats0));
  Obs.Gauge.set g_ws_hits (float_of_int (Mat.workspace_hits ws));
  Obs.Gauge.set g_ws_misses (float_of_int (Mat.workspace_misses ws));
  Obs.Gauge.set g_bytes_offheap (float_of_int (Mat.bytes_offheap () - offheap0));
  let stage = Pipeline.elapsed trace in
  {
    config;
    tau;
    device;
    target;
    pattern;
    mapping;
    plan;
    policy;
    (* Same brackets as the pre-pipeline Sys.time stamps: decomposition
       covers map + decompose, total additionally includes dropout. *)
    timings =
      {
        decomposition_s = stage "map" +. stage "decompose";
        total_s = stage "map" +. stage "decompose" +. stage "dropout";
      };
    trace = Pipeline.lint_trace ~disabled Pipeline.default trace;
  }

let compile ?(effort = Standard) ?(tau = 0.999) ?disabled_passes ~rng ~device ~config
    u =
  let n = Mat.rows u in
  if Mat.cols u <> n then invalid_arg "Compiler.compile: unitary must be square";
  if n > Lattice.size device then
    invalid_arg "Compiler.compile: program larger than device";
  Obs.Span.with_ "compile" (fun () ->
      drive ?disabled:disabled_passes ~effort ~tau ~rng ~device ~config
        ~source:Pass.Device u)

let compile_with_pattern ?(effort = Standard) ?(tau = 0.999) ?disabled_passes ~rng
    ~pattern ~config u =
  let n = Mat.rows u in
  if Mat.cols u <> n then invalid_arg "Compiler.compile_with_pattern: unitary must be square";
  if n <> Pattern.size pattern then
    invalid_arg "Compiler.compile_with_pattern: pattern size mismatch";
  let device = Lattice.create ~rows:1 ~cols:n in
  Obs.Span.with_ "compile" (fun () ->
      drive ?disabled:disabled_passes ~effort ~tau ~rng ~device ~config
        ~source:(Pass.Explicit pattern) u)

(* Target-directed compilation. Grid targets run through the same
   [source = Device] path as [compile] with the target-sized lattice —
   identical pass bodies and RNG draw order, so a zigzag compile is
   bit-identical to [compile ~device:(square-ish lattice)]; only the
   result's [target] field carries the target identity. Graph targets
   have no lattice, so the target's derived elimination pattern goes in
   explicitly, with a placeholder 1×n device (the same convention as
   [compile_with_pattern]). *)
let compile_for_target ?(effort = Standard) ?(tau = 0.999) ?disabled_passes ~rng
    ~target ~config u =
  let n = Mat.rows u in
  if Mat.cols u <> n then invalid_arg "Compiler.compile_for_target: unitary must be square";
  let device, source =
    match Target.device target n with
    | Some lattice ->
      if n > Lattice.size lattice then
        invalid_arg "Compiler.compile_for_target: program larger than target device";
      (lattice, Pass.Device)
    | None -> (Lattice.create ~rows:1 ~cols:n, Pass.Explicit (Target.pattern target n))
  in
  Obs.Span.with_ "compile" (fun () ->
      drive ?disabled:disabled_passes ~target ~effort ~tau ~rng ~device ~config
        ~source u)

(* The job's content, folded once per job. Jobs with identical inputs
   get identical streams, so duplicate jobs compile identically. *)
let job_fingerprint ~effort ~tau ~config u =
  Pass.Fingerprint.(
    mat (string (float (string seed (Config.name config)) tau) (Pass.effort_name effort)) u)

let compile_batch ?(effort = Standard) ?(tau = 0.999) ?(jobs = 1) ~rng ~device job_list =
  if jobs < 1 then invalid_arg "Compiler.compile_batch: jobs must be >= 1";
  let n = List.length job_list in
  (* Content-keyed per-job RNG streams: one base draw from the caller's
     rng, XORed with each job's input fingerprint. Every job's stream
     is then a function of the batch seed and the job's own inputs —
     independent of job order and sharding — which is what makes
     [~jobs:n] output bit-identical to sequential. *)
  let base = Rng.bits64 rng in
  let compile_job (u, config) =
    Obs.Counter.incr c_batch_jobs;
    let rng = Rng.of_key (Int64.logxor base (job_fingerprint ~effort ~tau ~config u)) in
    compile ~effort ~tau ~rng ~device ~config u
  in
  let domains = min jobs n in
  Obs.Span.with_ "compile.batch" (fun () ->
      if domains <= 1 then List.map compile_job job_list
      else begin
        let arr = Array.of_list job_list in
        let out = Array.make n None in
        (* Each compile gets its own [Mat.workspace] (see [drive]).
           Chunk boundaries depend only on [domains] and [n], never on
           scheduling. *)
        Pool.with_pool ~domains (fun pool ->
            Pool.chunked_iter pool ~chunks:domains ~n (fun ~chunk:_ ~lo ~hi ->
                for i = lo to hi - 1 do
                  out.(i) <- Some (compile_job arr.(i))
                done));
        Array.to_list out |> List.map (function Some t -> t | None -> assert false)
      end)

let shot_mask rng t =
  match t.policy with
  | None -> None
  | Some policy ->
    if policy.Dropout.kept_count >= Plan.rotation_count t.plan then None
    else begin
      match t.config with
      | Config.Rot_cut -> Some (Dropout.hard_kept policy t.plan)
      | Config.Baseline | Config.Decomp_opt | Config.Full_opt ->
        Some (Dropout.sample_kept rng policy t.plan)
    end

let shot_circuit ?prelude rng t =
  Obs.Span.with_ "compile.shot_circuit" (fun () ->
      let kept = shot_mask rng t in
      Plan.to_circuit ?kept ?prelude t.plan)

let approx_unitary ?kept t =
  let u_app = Plan.reconstruct ?kept t.plan in
  (* u_app is fresh, so the two relabelings are applied in place. *)
  Perm.permute_cols_inplace (Perm.inverse t.mapping.Mapping.col_perm) u_app;
  Perm.permute_rows_inplace (Perm.inverse t.mapping.Mapping.row_perm) u_app;
  u_app

let predicted_fidelity t =
  match t.policy with None -> 1. | Some p -> p.Dropout.expected_fidelity

let beamsplitter_reduction t =
  match t.policy with None -> 0. | Some p -> Dropout.dropped_fraction p t.plan

let beamsplitters_kept t =
  match t.policy with
  | None -> Plan.rotation_count t.plan
  | Some p -> p.Dropout.kept_count

let small_angles t ~threshold = Plan.small_angle_count t.plan ~threshold

(* Static verification is delegated to the lint engine: one subject
   per compiled result, every artifact slotted in. The permuted
   unitary doubles as the plan's replay reference, and un-permuting it
   must recover the program unitary ([?unitary]) bit-exactly. *)
(* The compiled result's own hardware backend for dataflow analysis:
   the device lattice as coupling graph, with the pattern's embedding
   as the label → site map. The coupling is attached only when the
   device actually explains the embedding — every label has a site and
   every pattern tree edge sits on device-adjacent sites (the same
   invariant lint's BH0202 checks). [compile_with_pattern] results
   carry a placeholder 1×n device that generally fails this test (the
   explicit pattern may be embedded for a different topology), so they
   analyze without feasibility — depth, liveness and budgets are still
   reported. Target-compiled results short-circuit all of this: the
   target IS the backend (its coupling graph, routing budget, depth
   ceiling, noise model and loss floor), with the compile pattern's
   sites as the label → site map when the pattern carries one. *)
let flow_backend_from_device t =
  let n = Pattern.size t.pattern in
  let sites = Array.make n (-1) in
  let faithful = ref true in
  for label = 0 to n - 1 do
    match Pattern.site t.pattern label with
    | Some s -> sites.(label) <- s
    | None -> faithful := false
  done;
  let on_device s = s >= 0 && s < Lattice.size t.device in
  if !faithful then
    for m = 0 to n - 1 do
      if not (on_device sites.(m)) then faithful := false
      else
        List.iter
          (fun nb ->
             if
               nb > m
               && not
                    (on_device sites.(nb)
                     && Lattice.adjacent t.device sites.(m) sites.(nb))
             then faithful := false)
          (Pattern.neighbors t.pattern m)
    done;
  if !faithful then
    Flow.backend ~coupling:(Coupling.of_lattice t.device) ~sites ()
  else Flow.backend ()

let flow_backend t =
  match t.target with
  | Some target ->
    let n = Pattern.size t.pattern in
    let sites = Array.make n (-1) in
    let embedded = ref true in
    for label = 0 to n - 1 do
      match Pattern.site t.pattern label with
      | Some s -> sites.(label) <- s
      | None -> embedded := false
    done;
    Flow.backend_of_target ?sites:(if !embedded then Some sites else None) ~n target
  | None -> flow_backend_from_device t

let lint ?settings ?unitary t =
  let subject =
    {
      Lint.empty with
      Lint.unitary;
      pattern = Some t.pattern;
      mapping = Some t.mapping;
      plan = Some t.plan;
      reference = Some t.mapping.Mapping.permuted;
      policy = t.policy;
      pipeline = Some t.trace;
      backend = Some (flow_backend t);
      target_name = Option.map (fun (tg : Target.t) -> tg.Target.name) t.target;
    }
  in
  Lint.run ?settings subject

(* Dataflow analysis of the compiled plan under the policy's
   deterministic hard mask — what a shot of the program actually
   keeps — against the result's own backend (or [?backend]). *)
let analyze ?backend t =
  let b = match backend with Some b -> b | None -> flow_backend t in
  let kept = Option.map (fun p -> Dropout.hard_kept p t.plan) t.policy in
  Flow.analyze ?kept ~backend:b t.plan

let verify t =
  match List.find_opt Lint.Diag.is_error (lint t) with
  | None -> Ok ()
  | Some d -> Error (Format.asprintf "%a" Lint.Diag.pp d)

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>%a on %a: %d modes, %d rotations, keep %d (-%.1f%%), predicted fidelity %.4f, \
     decomp %.3fs total %.3fs@]"
    Config.pp t.config Lattice.pp t.device t.plan.Plan.modes
    (Plan.rotation_count t.plan) (beamsplitters_kept t)
    (100. *. beamsplitter_reduction t)
    (predicted_fidelity t) t.timings.decomposition_s t.timings.total_s
