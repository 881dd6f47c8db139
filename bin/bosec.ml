(* bosec — command-line front end for the Bosehedral compiler.

   Subcommands:
     compile    compile an interferometer and print the plan summary
     check      statically verify serialized artifacts (lint engine)
     analyze    dataflow analysis of a plan: depth, fronts, liveness,
                coupling feasibility, fidelity/loss budgets (JSON)
     simulate   compile + execute on the noisy simulator, report JSD
     sample     draw GBS samples from a squeezed-light interferometer
     layouts    compare square / triangular / hexagonal couplings
     targets    list the registered hardware targets (docs/TARGETS.md)
     serve      long-running compile/sample service (docs/SERVING.md)

   Every subcommand accepts --metrics-out FILE (write the telemetry
   report as JSON, schema in docs/METRICS.md) and --trace (stream span
   closures to stderr as passes finish). `check` and `analyze` exit 1
   when any error-severity diagnostic fires (codes in
   docs/DIAGNOSTICS.md). *)

module Rng = Bose_util.Rng
module Json = Bose_util.Json
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Dist = Bose_util.Dist
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Coupling = Bose_hardware.Coupling
module Target = Bose_hardware.Target
module Emb = Bose_hardware.Embedding
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Noise = Bose_circuit.Noise
module Obs = Bose_obs.Obs
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
module Pool = Bose_par.Pool
module Gaussian = Bose_gbs.Gaussian
module Sampler = Bose_gbs.Sampler
module Fock = Bose_gbs.Fock
open Bosehedral

(* Run [f] under the telemetry switch implied by --metrics-out/--trace:
   spans/counters enabled, wall-clock span times, live stderr trace on
   --trace, and a JSON report written afterwards when requested. *)
let with_obs ~metrics_out ~trace f =
  let active = metrics_out <> None || trace in
  if active then begin
    Obs.set_clock Unix.gettimeofday;
    Obs.reset ();
    Obs.enable ();
    if trace then
      Obs.on_span_close :=
        Some
          (fun ~name ~depth ~elapsed_s ->
             Printf.eprintf "[trace] %s%-30s %.6fs\n%!"
               (String.make (2 * depth) ' ')
               name elapsed_s)
  end;
  f ();
  if active then begin
    let report = Obs.Report.capture () in
    (match metrics_out with
     | Some path ->
       (try
          Obs.Report.write_file path report;
          Printf.printf "metrics: %s\n" path
        with Sys_error msg ->
          Printf.eprintf "bosec: cannot write metrics file: %s\n" msg;
          exit 1)
     | None -> Format.printf "@.%a@." Obs.Report.pp report);
    Obs.on_span_close := None;
    Obs.disable ()
  end

let make_unitary rng ~modes ~graph_p =
  match graph_p with
  | None -> Unitary.haar_random rng modes
  | Some p ->
    let g = Bose_apps.Graph.random rng ~n:modes ~p in
    Bose_apps.Encoding.unitary_of g

(* `bosec compile --list-passes`: the compiler's pass registry, one
   entry per registered pass with its telemetry span, dependencies and
   one-line doc. *)
let print_pipeline () =
  let passes = Pipeline.passes Pipeline.default in
  List.iter
    (fun (p : Pass.t) ->
       let deps =
         match Pipeline.dep_names passes p with
         | [] -> "-"
         | names -> String.concat ", " names
       in
       Printf.printf "%-10s span %-18s after %-16s %s%s\n" p.Pass.name p.Pass.span deps
         p.Pass.doc
         (if Pass.can_skip p then "" else " [mandatory]"))
    passes

(* `bosec compile --batch K --jobs N`: compile K seed-varied programs
   as one batch, sharded over N domains. Per-job RNG streams are keyed
   by job content, so the summaries are identical at every N. *)
let run_batch_compile ~rows ~cols ~modes ~seed ~config ~tau ~graph_p ~effort ~jobs ~batch
    ~cache_stats ~metrics_out ~trace =
  let device = Lattice.create ~rows ~cols in
  let modes = match modes with Some n -> n | None -> Lattice.size device in
  if modes > Lattice.size device then begin
    Printf.eprintf "error: %d qumodes do not fit on a %dx%d device\n" modes rows cols;
    exit 1
  end;
  let job_list =
    List.init batch (fun k ->
        (make_unitary (Rng.create (seed + 1 + k)) ~modes ~graph_p, config))
  in
  let cache = if cache_stats then Some (Pipeline.Cache.create ()) else None in
  with_obs ~metrics_out ~trace @@ fun () ->
  let results =
    Compiler.compile_batch ~effort ~tau ?cache ~jobs ~rng:(Rng.create seed) ~device
      job_list
  in
  List.iteri
    (fun i c -> Format.printf "[job %d] %a@." i Compiler.pp_summary c)
    results;
  (match cache with
   | None -> ()
   | Some c -> Format.printf "cache: %a@." Pipeline.Cache.pp c)

let run_compile rows cols modes target seed config tau graph_p effort jobs batch verbose
    plan_out unitary_out list_passes disable_passes cache_stats metrics_out trace =
  if list_passes then begin
    print_pipeline ();
    exit 0
  end;
  if jobs < 1 then begin
    Printf.eprintf "bosec compile: --jobs must be >= 1\n";
    exit 2
  end;
  if batch < 0 then begin
    Printf.eprintf "bosec compile: --batch must be >= 0\n";
    exit 2
  end;
  if Option.is_some target && batch > 0 then begin
    Printf.eprintf "bosec compile: --target is not supported with --batch\n";
    exit 2
  end;
  if batch > 0 then begin
    run_batch_compile ~rows ~cols ~modes ~seed ~config ~tau ~graph_p ~effort ~jobs ~batch
      ~cache_stats ~metrics_out ~trace;
    exit 0
  end;
  List.iter
    (fun name ->
       match Pipeline.find Pipeline.default name with
       | None ->
         Printf.eprintf "bosec compile: unknown pass %s (see --list-passes)\n" name;
         exit 2
       | Some p ->
         if not (Pass.can_skip p) then begin
           Printf.eprintf "bosec compile: pass %s is mandatory and cannot be disabled\n"
             name;
           exit 2
         end)
    disable_passes;
  let rng = Rng.create seed in
  let device = Lattice.create ~rows ~cols in
  (* With --target the target sizes its own device; a 16-qumode default
     keeps the quickstart fast. Without it, the program fills the
     --rows x --cols device as before. *)
  let modes =
    match (modes, target) with
    | Some n, _ -> n
    | None, Some _ -> 16
    | None, None -> Lattice.size device
  in
  if Option.is_none target && modes > Lattice.size device then begin
    Printf.eprintf "error: %d qumodes do not fit on a %dx%d device\n" modes rows cols;
    exit 1
  end;
  let cache = if cache_stats then Some (Pipeline.Cache.create ()) else None in
  with_obs ~metrics_out ~trace @@ fun () ->
  let u = make_unitary rng ~modes ~graph_p in
  (* --jobs on a single compile: intra-compile parallelism. The pool
     only chunks the fused sweep engine's bulk passes, so the compiled
     artifacts are bit-identical at every jobs value. *)
  let with_pool f =
    if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> f (Some p)) else f None
  in
  let compiled =
    with_pool (fun pool ->
        match target with
        | Some target ->
          Compiler.compile_for_target ~effort ~tau ?cache ~disabled_passes:disable_passes
            ?pool ~rng ~target ~config u
        | None ->
          Compiler.compile ~effort ~tau ?cache ~disabled_passes:disable_passes ?pool ~rng
            ~device ~config u)
  in
  (match target with
   | Some (t : Target.t) -> Format.printf "target: %s@." t.Target.name
   | None -> ());
  (match cache with
   | None -> ()
   | Some c -> Format.printf "cache: %a@." Pipeline.Cache.pp c);
  Format.printf "%a@." Compiler.pp_summary compiled;
  Format.printf "small rotations (θ < 0.1): %d of %d@."
    (Compiler.small_angles compiled ~threshold:0.1)
    (Plan.rotation_count compiled.Compiler.plan);
  (match compiled.Compiler.policy with
   | None -> Format.printf "dropout: disabled@."
   | Some p ->
     Format.printf "dropout: |Θ| = %.4f, M = %d, K = %d, τ_K = %.6f@."
       p.Bose_dropout.Dropout.theta_cut p.Bose_dropout.Dropout.kept_count
       p.Bose_dropout.Dropout.power p.Bose_dropout.Dropout.expected_fidelity);
  (* Full static verification against the program unitary, not just
     the yes/no shim — warnings and all (docs/DIAGNOSTICS.md). *)
  (match Compiler.lint ~unitary:u compiled with
   | [] -> Format.printf "self-check: ok (0 diagnostics)@."
   | diags -> Format.printf "self-check:@.%a@." Diag.pp_list diags);
  (match plan_out with
   | None -> ()
   | Some path ->
     (try
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            Plan.save oc compiled.Compiler.plan);
        Format.printf "plan: %s@." path
      with Sys_error msg ->
        Printf.eprintf "bosec: cannot write plan file: %s\n" msg;
        exit 1));
  (match unitary_out with
   | None -> ()
   | Some path ->
     (try
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            Unitary.save oc compiled.Compiler.mapping.Bose_mapping.Mapping.permuted);
        Format.printf "unitary: %s@." path
      with Sys_error msg ->
        Printf.eprintf "bosec: cannot write unitary file: %s\n" msg;
        exit 1));
  if verbose then begin
    Format.printf "@.pattern:@.%a@." Pattern.pp compiled.Compiler.pattern;
    Format.printf "plan:@.%a@." Plan.pp compiled.Compiler.plan
  end

(* Every code the lint engine can emit: the per-pass registries plus
   the engine's own codes (BH0001 suppression notes, BH08xx loader
   diagnostics) that belong to no pass. *)
let known_codes =
  "BH0001" :: "BH0801" :: "BH0802"
  :: List.concat_map (fun p -> p.Lint.codes) Lint.passes

(* An unknown --disable entry used to pass silently — a typo like
   BH4042 would "work" while suppressing nothing. Warn (on stderr, exit
   unchanged: suppressing nothing is not an artifact defect). *)
let warn_unknown_disables cmd disable =
  List.iter
    (fun code ->
       if not (List.mem code known_codes) then
         Printf.eprintf
           "bosec %s: warning: --disable %s matches no known diagnostic code (see \
            bosec check --list-passes)\n%!"
           cmd code)
    disable

(* `bosec check`: the lint engine over serialized artifacts. Artifacts
   that fail to parse become BH08xx diagnostics rather than exceptions;
   the exit code is 1 iff any error-severity diagnostic fired. *)
let run_check plan_file unitary_file cache_dir target_name compiled_for seed tau
    min_fidelity json werror disable list_passes metrics_out trace =
  if list_passes then begin
    List.iter
      (fun p ->
         Printf.printf "%-10s %s\n           codes: %s\n" p.Lint.name p.Lint.doc
           (String.concat " " p.Lint.codes))
      Lint.passes;
    exit 0
  end;
  if plan_file = None && unitary_file = None && cache_dir = None && target_name = None
  then begin
    Printf.eprintf
      "bosec check: nothing to check (use --plan, --unitary, --cache-dir and/or \
       --target)\n";
    exit 2
  end;
  warn_unknown_disables "check" disable;
  let had_errors = ref false in
  with_obs ~metrics_out ~trace (fun () ->
      let load_diags = ref [] in
      let plan =
        match plan_file with
        | None -> None
        | Some path ->
          (match Lint.load_plan path with
           | Ok p -> Some p
           | Error d ->
             load_diags := d :: !load_diags;
             None)
      in
      let unitary =
        match unitary_file with
        | None -> None
        | Some path ->
          (match Lint.load_unitary path with
           | Ok u -> Some u
           | Error d ->
             load_diags := d :: !load_diags;
             None)
      in
      (* With --tau, rebuild the §VI dropout policy for the plan (over
         the provided unitary when dimensions agree, else the plan's own
         replay) and lint it; --min-fidelity raises the bar BH0503
         enforces above the policy's construction τ. A structurally
         broken plan cannot be replayed: it gets no policy, and the plan
         pass reports why. *)
      let policy =
        match (tau, plan) with
        | Some tau, Some plan when Lint.plan_structure plan = [] ->
          let reference =
            match unitary with
            | Some u when Mat.dims u = (plan.Plan.modes, plan.Plan.modes) -> u
            | Some _ | None -> Plan.reconstruct plan
          in
          Some (Bose_dropout.Dropout.make_policy (Rng.create seed) plan reference ~tau)
        | _ -> None
      in
      let subject =
        {
          Lint.empty with
          Lint.plan;
          unitary;
          reference =
            (match (plan, unitary) with
             | Some p, Some u when Mat.dims u = (p.Plan.modes, p.Plan.modes) -> unitary
             | _ -> None);
          policy;
          min_fidelity;
          cache_dir;
          (* No flow backend here, so the target pass owns the depth
             ceiling (BH1303); `bosec analyze --target` attaches the
             target-derived backend and gates depth as BH1102 instead. *)
          target_name;
          compiled_target = compiled_for;
        }
      in
      let settings = { Lint.default_settings with Lint.disabled_codes = disable; werror } in
      let diags = List.rev !load_diags @ Lint.run ~settings subject in
      if json then print_endline (Json.to_string (Diag.to_json diags))
      else Format.printf "%a@." Diag.pp_list diags;
      had_errors := List.exists Diag.is_error diags);
  if !had_errors then exit 1

(* `bosec analyze`: dataflow analysis (lib/flow) of a serialized plan —
   ASAP depth and commuting fronts, per-mode liveness, sound
   fidelity/loss budget intervals, and (with --coupling) feasibility
   against a hardware coupling graph. Prints the JSON report, then the
   BH11xx-and-friends diagnostics; exits 1 iff any error fired, with
   --werror promoting warnings, mirroring `bosec check`. *)
let run_analyze plan_file unitary_file seed tau coupling_kind rows cols target
    routing_budget max_depth loss min_transmission json werror disable metrics_out trace
    =
  (match plan_file with
   | Some _ -> ()
   | None ->
     Printf.eprintf "bosec analyze: nothing to analyze (use --plan)\n";
     exit 2);
  if Option.is_some target && Option.is_some coupling_kind then begin
    Printf.eprintf
      "bosec analyze: --target and --coupling are mutually exclusive (the target \
       brings its own coupling graph)\n";
    exit 2
  end;
  warn_unknown_disables "analyze" disable;
  let coupling =
    match coupling_kind with
    | None -> None
    | Some kind ->
      (match Coupling.of_kind_string ~rows ~cols kind with
       | Ok c -> Some c
       | Error msg ->
         Printf.eprintf "bosec analyze: %s\n" msg;
         exit 2)
  in
  (* The manual backend knobs are usable immediately; a target backend
     needs the plan's mode count, so it is derived after the plan
     loads. *)
  let backend_for plan =
    match ((target : Target.t option), plan) with
    | Some t, Some p -> Bose_flow.Flow.backend_of_target ~n:p.Plan.modes t
    | Some _, None -> Bose_flow.Flow.backend ()
    | None, _ ->
      let noise = if loss > 0. then Noise.uniform loss else Noise.ideal in
      Bose_flow.Flow.backend ?coupling ~routing_budget ?max_depth ~noise
        ~min_transmission ()
  in
  let had_errors = ref false in
  with_obs ~metrics_out ~trace (fun () ->
      let load_diags = ref [] in
      let plan =
        match plan_file with
        | None -> None
        | Some path ->
          (match Lint.load_plan path with
           | Ok p -> Some p
           | Error d ->
             load_diags := d :: !load_diags;
             None)
      in
      let unitary =
        match unitary_file with
        | None -> None
        | Some path ->
          (match Lint.load_unitary path with
           | Ok u -> Some u
           | Error d ->
             load_diags := d :: !load_diags;
             None)
      in
      (* A structurally broken plan is neither replayed nor analyzed:
         the plan pass reports it (BH0403) and the report is null. *)
      let plan_ok =
        match plan with Some p -> Lint.plan_structure p = [] | None -> false
      in
      (* Same policy reconstruction as `bosec check --tau`: the report
         and the BH11xx pass then analyze under the policy's
         deterministic hard mask — what a shot actually keeps. *)
      let policy =
        match (tau, plan) with
        | Some tau, Some plan when plan_ok ->
          let reference =
            match unitary with
            | Some u when Mat.dims u = (plan.Plan.modes, plan.Plan.modes) -> u
            | Some _ | None -> Plan.reconstruct plan
          in
          Some (Bose_dropout.Dropout.make_policy (Rng.create seed) plan reference ~tau)
        | _ -> None
      in
      let backend = backend_for plan in
      let report =
        match plan with
        | Some p when plan_ok ->
          let kept =
            Option.map (fun pol -> Bose_dropout.Dropout.hard_kept pol p) policy
          in
          Some (Bose_flow.Flow.analyze ?kept ~backend p)
        | Some _ | None -> None
      in
      let subject =
        {
          Lint.empty with
          Lint.plan;
          unitary;
          reference =
            (match (plan, unitary) with
             | Some p, Some u when Mat.dims u = (p.Plan.modes, p.Plan.modes) -> unitary
             | _ -> None);
          policy;
          backend = Some backend;
          target_name = Option.map (fun (t : Target.t) -> t.Target.name) target;
        }
      in
      let settings = { Lint.default_settings with Lint.disabled_codes = disable; werror } in
      let diags = List.rev !load_diags @ Lint.run ~settings subject in
      (match (json, report) with
       | true, _ ->
         let report =
           Option.fold ~none:Json.Null ~some:Bose_flow.Flow.report_to_json report
         in
         print_endline
           (Json.to_string
              (Json.Obj [ ("report", report); ("diagnostics", Diag.to_json diags) ]))
       | false, Some r ->
         print_endline (Json.to_string (Bose_flow.Flow.report_to_json r));
         Format.printf "%a@.%a@." Bose_flow.Flow.pp_report r Diag.pp_list diags
       | false, None -> Format.printf "%a@." Diag.pp_list diags);
      had_errors := List.exists Diag.is_error diags);
  if !had_errors then exit 1

let run_simulate rows cols modes seed tau graph_p loss cutoff metrics_out trace =
  let rng = Rng.create seed in
  let device = Lattice.create ~rows ~cols in
  let modes = match modes with Some n -> n | None -> min 8 (Lattice.size device) in
  if modes > 10 then begin
    Printf.eprintf "error: exact simulation is limited to 10 qumodes\n";
    exit 1
  end;
  with_obs ~metrics_out ~trace @@ fun () ->
  let u = make_unitary rng ~modes ~graph_p in
  let program =
    Runner.pure_program ~squeezing:(Array.make modes (Cx.re 0.35)) ~unitary:u ()
  in
  let ideal = Runner.ideal_distribution ~max_photons:cutoff program in
  Format.printf "%d qumodes on %a, loss %.3f, tau %.4f@." modes Lattice.pp device loss tau;
  List.iter
    (fun config ->
       let compiled = Compiler.compile ~rng ~device ~config ~tau u in
       let noisy =
         Runner.noisy_distribution ~realizations:8 ~rng ~noise:(Noise.uniform loss)
           ~max_photons:cutoff compiled program
       in
       Format.printf "%-11s JSD vs ideal = %.5f  (BS kept %d/%d)@." (Config.name config)
         (Dist.jsd ideal noisy) (Compiler.beamsplitters_kept compiled)
         (Plan.rotation_count compiled.Compiler.plan))
    Config.all

(* `bosec sample`: draw GBS Fock samples from a squeezed-light state
   through a Haar-random (or graph-encoded) interferometer. Shots fan
   out over pre-split per-chain RNG streams, so the sample list is
   bit-identical at every --jobs value. *)
let run_sample modes target seed shots jobs chains squeezing max_photons use_chain_rule
    graph_p metrics_out trace =
  if jobs < 1 then begin
    Printf.eprintf "bosec sample: --jobs must be >= 1\n";
    exit 2
  end;
  if modes < 1 || modes > 10 then begin
    Printf.eprintf "bosec sample: --modes must be in 1..10 (exact Gaussian simulation)\n";
    exit 2
  end;
  with_obs ~metrics_out ~trace @@ fun () ->
  let rng = Rng.create seed in
  let u = make_unitary (Rng.create (seed + 1)) ~modes ~graph_p in
  (* With --target, sample the interferometer the hardware would
     actually run: compile for the target and push the approximate
     unitary (dropout's deterministic hard mask applied) through the
     Gaussian simulation instead of the exact program unitary. *)
  let u =
    match target with
    | None -> u
    | Some target ->
      let c =
        Compiler.compile_for_target ~rng:(Rng.create (seed + 2)) ~target
          ~config:Config.Full_opt u
      in
      let kept =
        Option.map
          (fun p -> Bose_dropout.Dropout.hard_kept p c.Compiler.plan)
          c.Compiler.policy
      in
      Format.printf "target %s: sampling the compiled approximation (%d of %d rotations kept)@."
        target.Target.name
        (Compiler.beamsplitters_kept c)
        (Plan.rotation_count c.Compiler.plan);
      Compiler.approx_unitary ?kept c
  in
  let state = Gaussian.vacuum modes in
  for i = 0 to modes - 1 do
    Gaussian.squeeze state i (Cx.re squeezing)
  done;
  Gaussian.interferometer state u;
  let with_pool f =
    if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> f (Some p)) else f None
  in
  let samples =
    with_pool (fun pool ->
        if use_chain_rule then Sampler.chain_rule_chains ~chains ?pool rng state shots
        else begin
          let s = Sampler.of_state ~max_photons state in
          Format.printf "truncation tail mass: %.6f@." (Sampler.tail_mass s);
          Sampler.draw_chains ~chains ?pool rng s shots
        end)
  in
  Format.printf "%d modes, %d shots over %d chains, jobs %d (%s)@." modes shots chains
    jobs
    (if use_chain_rule then "chain-rule" else "exact distribution");
  let dist = Dist.of_samples samples in
  let by_mass =
    List.sort
      (fun (_, p) (_, q) -> compare (q : float) p)
      (Dist.to_list dist)
  in
  List.iteri
    (fun i (pattern, p) ->
       if i < 8 then
         Format.printf "  %-24s %.4f@."
           (if pattern = Fock.tail then "(tail)"
            else "[" ^ String.concat "; " (List.map string_of_int pattern) ^ "]")
           p)
    by_mass;
  let mean =
    List.fold_left
      (fun acc s -> if s = Fock.tail then acc else acc + List.fold_left ( + ) 0 s)
      0 samples
  in
  Format.printf "mean photons per shot: %.3f@."
    (float_of_int mean /. float_of_int (max 1 shots))

(* `bosec serve`: the long-running compile/sample service. Wire
   protocol and on-disk cache layout are documented in docs/SERVING.md;
   without --socket the server speaks the same protocol on
   stdin/stdout (one JSON request per line, one reply per line). *)
let run_serve socket cache_dir max_cache_mb jobs metrics_out trace =
  if jobs < 1 then begin
    Printf.eprintf "bosec serve: --jobs must be >= 1\n";
    exit 2
  end;
  if max_cache_mb < 1 then begin
    Printf.eprintf "bosec serve: --max-cache-mb must be >= 1\n";
    exit 2
  end;
  with_obs ~metrics_out ~trace @@ fun () ->
  let state = Bose_serve.Serve.create ~jobs ?cache_dir ~max_cache_mb () in
  match socket with
  | Some path ->
    Printf.eprintf "bosec serve: listening on %s\n%!" path;
    Bose_serve.Serve.serve_socket state ~path
  | None -> Bose_serve.Serve.serve_channels state stdin stdout

let run_layouts rows cols modes seed tau metrics_out trace =
  let rng = Rng.create seed in
  with_obs ~metrics_out ~trace @@ fun () ->
  let layouts =
    List.map
      (fun kind ->
         match Coupling.of_kind_string ~rows ~cols kind with
         | Ok c -> (kind, c)
         | Error msg ->
           (* kind_names is the parser's own vocabulary, so this is
              unreachable; fail loudly rather than silently skipping. *)
           Printf.eprintf "bosec layouts: %s\n" msg;
           exit 2)
      Coupling.kind_names
  in
  let modes = match modes with Some n -> n | None -> rows * cols in
  let u = Unitary.haar_random rng modes in
  Format.printf "%-12s %8s %10s %12s %14s@." "layout" "max deg" "main path" "BS dropped"
    "small (θ<0.1)";
  List.iter
    (fun (name, coupling) ->
       let pattern = Emb.of_coupling_for_program coupling modes in
       let compiled =
         Compiler.compile_with_pattern ~rng ~pattern ~config:Config.Full_opt ~tau u
       in
       Format.printf "%-12s %8d %10d %11.1f%% %14d@." name
         (Coupling.max_degree coupling)
         (List.length (Pattern.main_path_labels pattern))
         (100. *. Compiler.beamsplitter_reduction compiled)
         (Compiler.small_angles compiled ~threshold:0.1))
    layouts

(* `bosec targets`: the hardware-target registry (docs/TARGETS.md). One
   line per target: name, topology class, routing budget, the depth
   ceiling evaluated at a 32-mode reference program, and the doc. *)
let run_targets () =
  List.iter
    (fun (t : Target.t) ->
       let topology =
         match t.Target.topology with Target.Grid _ -> "grid" | Target.Graph _ -> "graph"
       in
       let depth =
         match t.Target.max_depth 32 with
         | None -> "unlimited"
         | Some d -> Printf.sprintf "%d @ n=32" d
       in
       Printf.printf "%-14s %-6s routing %-2d depth %-11s %s\n" t.Target.name topology
         t.Target.routing_budget depth t.Target.doc)
    (Target.all ())

open Cmdliner

let rows =
  Arg.(value
       & opt int 6
       & info [ "rows" ]
           ~doc:"Device rows. Legacy spelling of the hardware description: prefer \
                 $(b,--target), which sizes its own device; with it this flag is \
                 ignored.")

let cols =
  Arg.(value
       & opt int 6
       & info [ "cols" ]
           ~doc:"Device columns. Legacy spelling of the hardware description: prefer \
                 $(b,--target), which sizes its own device; with it this flag is \
                 ignored.")

(* --target NAME, resolved against the registry at parse time. The
   check subcommand deliberately takes the raw string instead, so an
   unknown name reaches the lint engine as BH1301. *)
let target_conv =
  let parse s =
    match Target.find s with
    | Some t -> Ok t
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown target %s (registered: %s)" s
              (String.concat " | " (Target.names ()))))
  in
  let print fmt (t : Target.t) = Format.pp_print_string fmt t.Target.name in
  Arg.conv (parse, print)

let target_arg ~doc = Arg.(value & opt (some target_conv) None & info [ "target" ] ~docv:"NAME" ~doc)

let modes =
  Arg.(value
       & opt (some int) None
       & info [ "n"; "modes" ] ~doc:"Program qumodes (default: whole device).")

let seed = Arg.(value & opt int 2024 & info [ "seed" ] ~doc:"Random seed.")

let config =
  let parse s =
    match Config.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg "expected baseline | rot-cut | decomp-opt | full-opt")
  in
  let print fmt c = Format.pp_print_string fmt (Config.name c) in
  Arg.(value
       & opt (conv (parse, print)) Config.Full_opt
       & info [ "c"; "config" ] ~doc:"Configuration: baseline, rot-cut, decomp-opt, full-opt.")

let tau =
  Arg.(value & opt float 0.999 & info [ "tau" ] ~doc:"Unitary approximation accuracy threshold.")

let graph_p =
  Arg.(value
       & opt (some float) None
       & info [ "graph" ]
           ~doc:"Compile a random-graph GBS encoding with this edge probability instead of a Haar-random unitary.")

let effort =
  let parse = function
    | "fast" -> Ok Compiler.Fast
    | "standard" -> Ok Compiler.Standard
    | _ -> Error (`Msg "expected fast | standard")
  in
  let print fmt = function
    | Compiler.Fast -> Format.pp_print_string fmt "fast"
    | Compiler.Standard -> Format.pp_print_string fmt "standard"
  in
  Arg.(value
       & opt (conv (parse, print)) Compiler.Standard
       & info [ "effort" ] ~doc:"Search effort: fast or standard.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the pattern and full plan.")

let plan_out =
  Arg.(value
       & opt (some string) None
       & info [ "plan-out" ] ~docv:"FILE"
           ~doc:"Write the compiled plan to $(docv) (text format, loadable by \
                 $(b,bosec check --plan)).")

let unitary_out =
  Arg.(value
       & opt (some string) None
       & info [ "unitary-out" ] ~docv:"FILE"
           ~doc:"Write the permuted unitary — the plan's replay reference — to $(docv) \
                 (loadable by $(b,bosec check --unitary)).")

let list_compile_passes =
  Arg.(value
       & flag
       & info [ "list-passes" ]
           ~doc:"List the registered compiler passes (name, telemetry span, \
                 dependencies) and exit.")

let disable_passes =
  Arg.(value
       & opt (list string) []
       & info [ "disable-pass" ] ~docv:"NAMES"
           ~doc:"Comma-separated pass names to skip; each skipped pass stores its \
                 neutral artifact (e.g. $(b,dropout) compiles with no dropout policy). \
                 Mandatory passes cannot be disabled.")

let cache_stats =
  Arg.(value
       & flag
       & info [ "cache-stats" ]
           ~doc:"Compile through a fresh artifact cache and print its hit/miss/entry \
                 statistics.")

let metrics_out =
  Arg.(value
       & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Enable telemetry and write the per-run report as JSON to $(docv) \
                 (schema documented in docs/METRICS.md).")

let trace =
  Arg.(value
       & flag
       & info [ "trace" ]
           ~doc:"Enable telemetry and stream span timings to stderr as passes \
                 finish; without $(b,--metrics-out) the report table is printed \
                 on exit.")
let loss = Arg.(value & opt float 0.05 & info [ "loss" ] ~doc:"Per-beamsplitter photon loss rate.")
let cutoff = Arg.(value & opt int 5 & info [ "cutoff" ] ~doc:"Photon-number truncation.")

let jobs =
  Arg.(value
       & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Parallel domains (including the calling one). Output is bit-identical \
                 at every $(docv) for a fixed seed; only wall-clock time changes.")

let batch =
  Arg.(value
       & opt int 0
       & info [ "batch" ] ~docv:"K"
           ~doc:"Compile $(docv) seed-varied programs as one batch (sharded across \
                 $(b,--jobs) domains) instead of a single program.")

let compile_target =
  target_arg
    ~doc:
      "Compile for a registered hardware target (see $(b,bosec targets)). The target \
       supplies the coupling graph, embedding, routing budget, depth ceiling and \
       noise model; $(b,--rows)/$(b,--cols) are ignored and $(b,--modes) defaults \
       to 16. Not supported with $(b,--batch)."

let compile_term =
  Term.(
    const (fun rows cols modes target seed config tau graph_p effort jobs batch verbose
             plan_out unitary_out list_passes disable_passes cache_stats metrics_out
             trace ->
        run_compile rows cols modes target seed config tau graph_p effort jobs batch
          verbose plan_out unitary_out list_passes disable_passes cache_stats
          metrics_out trace)
    $ rows $ cols $ modes $ compile_target $ seed $ config $ tau $ graph_p $ effort
    $ jobs $ batch $ verbose $ plan_out $ unitary_out $ list_compile_passes
    $ disable_passes $ cache_stats $ metrics_out $ trace)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an interferometer and print the plan summary")
    compile_term

let check_cmd =
  let plan_file =
    Arg.(value
         & opt (some string) None
         & info [ "plan" ] ~docv:"FILE" ~doc:"Plan file to verify (written by \
                                              $(b,--plan-out)).")
  in
  let unitary_file =
    Arg.(value
         & opt (some string) None
         & info [ "unitary" ] ~docv:"FILE"
             ~doc:"Unitary file to verify (Unitary.save format). With $(b,--plan), also \
                   used as the plan's replay reference.")
  in
  let cache_dir =
    Arg.(value
         & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Audit a $(b,bosec serve) disk-cache directory (read-only): index \
                   integrity, object framing, orphans (BH12xx).")
  in
  let check_tau =
    Arg.(value
         & opt (some float) None
         & info [ "tau" ]
             ~doc:"Rebuild the dropout policy for the plan at this accuracy threshold and \
                   lint it.")
  in
  let min_fidelity =
    Arg.(value
         & opt (some float) None
         & info [ "min-fidelity" ]
             ~doc:"Require the policy's expected fidelity to reach this value (default: \
                   the policy's own tau) — BH0503 fires below it.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON instead of text.")
  in
  let werror =
    Arg.(value & flag & info [ "werror" ] ~doc:"Promote warnings to errors (-Werror).")
  in
  let disable =
    Arg.(value
         & opt (list string) []
         & info [ "disable" ] ~docv:"CODES"
             ~doc:"Comma-separated diagnostic codes to suppress, e.g. BH0407,BH0104.")
  in
  let list_passes =
    Arg.(value
         & flag
         & info [ "list-passes" ] ~doc:"List the registered lint passes and their codes.")
  in
  let target_name =
    Arg.(value
         & opt (some string) None
         & info [ "target" ] ~docv:"NAME"
             ~doc:"Check the artifacts against a hardware target: unknown names are \
                   BH1301, a plan deeper than the target's depth ceiling is BH1303, \
                   and a mismatching $(b,--compiled-for) is BH1302.")
  in
  let compiled_for =
    Arg.(value
         & opt (some string) None
         & info [ "compiled-for" ] ~docv:"NAME"
             ~doc:"Target the plan was originally compiled for (its provenance); \
                   differing from $(b,--target) is BH1302.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically verify serialized compiler artifacts; exit 1 on any error \
             diagnostic")
    Term.(
      const (fun plan_file unitary_file cache_dir target_name compiled_for seed tau
               min_fidelity json werror disable list_passes metrics_out trace ->
          run_check plan_file unitary_file cache_dir target_name compiled_for seed tau
            min_fidelity json werror disable list_passes metrics_out trace)
      $ plan_file $ unitary_file $ cache_dir $ target_name $ compiled_for $ seed
      $ check_tau $ min_fidelity $ json $ werror $ disable $ list_passes $ metrics_out
      $ trace)

let analyze_cmd =
  let plan_file =
    Arg.(value
         & opt (some string) None
         & info [ "plan" ] ~docv:"FILE"
             ~doc:"Plan file to analyze (written by $(b,bosec compile --plan-out)).")
  in
  let unitary_file =
    Arg.(value
         & opt (some string) None
         & info [ "unitary" ] ~docv:"FILE"
             ~doc:"Replay reference for the plan (enables the replay lint checks and \
                   grounds the $(b,--tau) policy).")
  in
  let analyze_tau =
    Arg.(value
         & opt (some float) None
         & info [ "tau" ]
             ~doc:"Rebuild the dropout policy at this accuracy threshold and analyze \
                   under its hard mask — the rotations a shot actually keeps.")
  in
  let coupling_kind =
    Arg.(value
         & opt (some string) None
         & info [ "coupling" ] ~docv:"KIND"
             ~doc:"Check coupling feasibility against a $(docv) graph (square, \
                   triangular or hexagonal on $(b,--rows) x $(b,--cols)) whose sites \
                   are the plan's qumode labels. Without it, feasibility is skipped. \
                   Legacy spelling of the hardware description: prefer $(b,--target), \
                   which also brings the routing budget, depth ceiling and noise \
                   model.")
  in
  let analyze_target =
    target_arg
      ~doc:
        "Analyze against a registered hardware target (see $(b,bosec targets)): its \
         coupling graph sized to the plan, routing budget, depth ceiling and noise \
         model. Mutually exclusive with $(b,--coupling) and the manual backend \
         knobs."
  in
  let routing_budget =
    Arg.(value
         & opt int 0
         & info [ "routing-budget" ] ~docv:"HOPS"
             ~doc:"Extra swap hops allowed per rotation: a mode pair is feasible at \
                   coupling distance <= 1 + $(docv).")
  in
  let max_depth =
    Arg.(value
         & opt (some int) None
         & info [ "max-depth" ]
             ~doc:"Backend depth ceiling; BH1102 fires when the schedule is deeper.")
  in
  let analyze_loss =
    Arg.(value
         & opt float 0.
         & info [ "loss" ]
             ~doc:"Per-beamsplitter photon loss rate for the transmission budget \
                   (single-qumode gates lose at a tenth of it); 0 means ideal.")
  in
  let min_transmission =
    Arg.(value
         & opt float 0.
         & info [ "min-transmission" ]
             ~doc:"Loss-budget floor: BH1104 fires for every mode whose transmission \
                   falls below it.")
  in
  let json =
    Arg.(value
         & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object with the report and the diagnostics instead \
                   of text.")
  in
  let werror =
    Arg.(value & flag & info [ "werror" ] ~doc:"Promote warnings to errors (-Werror).")
  in
  let disable =
    Arg.(value
         & opt (list string) []
         & info [ "disable" ] ~docv:"CODES"
             ~doc:"Comma-separated diagnostic codes to suppress, e.g. BH1103; unknown \
                   codes draw a warning.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Dataflow analysis of a plan: schedule depth and commuting fronts, \
             per-mode liveness, coupling feasibility, fidelity/loss budget intervals \
             (JSON report); exit 1 on any error diagnostic")
    Term.(
      const (fun plan_file unitary_file seed tau coupling_kind rows cols target
               routing_budget max_depth loss min_transmission json werror disable
               metrics_out trace ->
          run_analyze plan_file unitary_file seed tau coupling_kind rows cols target
            routing_budget max_depth loss min_transmission json werror disable
            metrics_out trace)
      $ plan_file $ unitary_file $ seed $ analyze_tau $ coupling_kind $ rows $ cols
      $ analyze_target $ routing_budget $ max_depth $ analyze_loss $ min_transmission
      $ json $ werror $ disable $ metrics_out $ trace)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compile and execute on the lossy simulator; report JSD per config")
    Term.(
      const (fun rows cols modes seed tau graph_p loss cutoff metrics_out trace ->
          run_simulate rows cols modes seed tau graph_p loss cutoff metrics_out trace)
      $ rows $ cols $ modes $ seed $ tau $ graph_p $ loss $ cutoff $ metrics_out
      $ trace)

let sample_cmd =
  let sample_modes =
    Arg.(value
         & opt int 5
         & info [ "n"; "modes" ] ~doc:"Program qumodes (exact simulation, 1..10).")
  in
  let shots = Arg.(value & opt int 1024 & info [ "shots" ] ~doc:"Shots to draw.") in
  let chains =
    Arg.(value
         & opt int 16
         & info [ "chains" ]
             ~doc:"Independent shot chains; the sample layout (and therefore the \
                   output) depends on this, not on $(b,--jobs).")
  in
  let squeezing =
    Arg.(value
         & opt float 0.35
         & info [ "squeezing" ] ~doc:"Squeezing parameter applied to every qumode.")
  in
  let max_photons =
    Arg.(value
         & opt int 5
         & info [ "max-photons" ]
             ~doc:"Photon-number truncation of the exact output distribution.")
  in
  let use_chain_rule =
    Arg.(value
         & flag
         & info [ "chain-rule" ]
             ~doc:"Sample mode-by-mode via conditional loop hafnians instead of \
                   enumerating the truncated distribution.")
  in
  let sample_target =
    target_arg
      ~doc:
        "Compile the interferometer for a registered hardware target first (see \
         $(b,bosec targets)) and sample its approximate unitary — dropout's \
         deterministic hard mask applied — instead of the exact program unitary."
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Draw GBS samples from a squeezed-light interferometer; $(b,--jobs) fans \
             shot chains out over a domain pool with bit-identical output")
    Term.(
      const (fun modes target seed shots jobs chains squeezing max_photons
               use_chain_rule graph_p metrics_out trace ->
          run_sample modes target seed shots jobs chains squeezing max_photons
            use_chain_rule graph_p metrics_out trace)
      $ sample_modes $ sample_target $ seed $ shots $ jobs $ chains $ squeezing
      $ max_photons $ use_chain_rule $ graph_p $ metrics_out $ trace)

let serve_cmd =
  let socket =
    Arg.(value
         & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) (any number of \
                   concurrent clients); without it the server speaks the protocol \
                   on stdin/stdout.")
  in
  let cache_dir =
    Arg.(value
         & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist compile artifacts to a disk cache under $(docv) \
                   (created if missing); artifacts survive restarts and disk hits \
                   are bit-identical to the original compile.")
  in
  let max_cache_mb =
    Arg.(value
         & opt int 64
         & info [ "max-cache-mb" ] ~docv:"MB"
             ~doc:"Disk-cache size bound; least-recently-used entries are evicted \
                   past it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running compile/sample service over stdin/stdout or a Unix-domain \
             socket (line-delimited JSON; protocol in docs/SERVING.md)")
    Term.(
      const (fun socket cache_dir max_cache_mb jobs metrics_out trace ->
          run_serve socket cache_dir max_cache_mb jobs metrics_out trace)
      $ socket $ cache_dir $ max_cache_mb $ jobs $ metrics_out $ trace)

let layouts_cmd =
  Cmd.v
    (Cmd.info "layouts" ~doc:"Compare square / triangular / hexagonal couplings")
    Term.(
      const (fun rows cols modes seed tau metrics_out trace ->
          run_layouts rows cols modes seed tau metrics_out trace)
      $ rows $ cols $ modes $ seed $ tau $ metrics_out $ trace)

let targets_cmd =
  Cmd.v
    (Cmd.info "targets"
       ~doc:"List the registered hardware targets (docs/TARGETS.md); pass a name to \
             $(b,--target) on compile, check, analyze or sample")
    Term.(const run_targets $ const ())

let () =
  let doc = "Bosehedral compiler for (Gaussian) Boson sampling programs" in
  let default = compile_term in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "bosec" ~doc ~version:Version.version)
          [ compile_cmd; check_cmd; analyze_cmd; simulate_cmd; sample_cmd; layouts_cmd;
            targets_cmd; serve_cmd ]))
