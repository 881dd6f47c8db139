(** The Bosehedral compile pipeline: elimination-pattern selection,
    qumode mapping, decomposition, and dropout-policy construction.

    [compile] consumes the program's high-level semantics — the N×N
    interferometer unitary — plus the device, and produces everything
    needed to generate per-shot circuits and to reason about the
    approximation at compile time (the paper's §III-B problem).

    {2 Pass contract}

    [compile] is a thin driver over the default pass-manager pipeline
    ({!Pipeline.default}): four registered {!Pass.t} stages executed in
    dependency order over a shared compile context, each wrapped in the
    telemetry span named below (see docs/METRICS.md), and the whole
    call in span ["compile"]:

    - {b embed} (["compile.embed"]): device + config → elimination
      pattern. With tree-pattern configs, a pattern tree embedded into
      the device's coupling graph; otherwise a chain. Every pattern
      edge must be a physically coupled qumode pair.
    - {b map} (["compile.map"], nested ["compile.map.polish"]):
      unitary + pattern → {!Bose_mapping.Mapping.t}. Chooses row/column
      permutations (zero-cost physical relabelings) and stores the
      permuted unitary; semantics are untouched — undoing the
      permutations must recover the input exactly.
    - {b decompose} (["compile.decompose"]): permuted unitary →
      {!Bose_decomp.Plan.t} along the pattern. The plan is exact:
      replaying it reconstructs the permuted unitary to ~1e-8; every
      rotation addresses a pattern edge.
    - {b dropout} (["compile.dropout"]): plan + τ → optional
      {!Bose_dropout.Dropout.policy}. Pure compile-time analysis of the
      plan's angles; it alters neither plan nor mapping, and its
      expected fidelity must be ≥ τ.

    {!verify} checks these invariants on a compiled result. Telemetry
    is observational only: with {!Bose_obs.Obs} enabled or disabled the
    passes produce identical plans, policies, and shot circuits
    (pinned by [test/test_obs.ml]).

    Every call runs all four passes: the compiler keeps no state
    between calls. Reuse is per request, in [bosec serve]'s memory
    tier and disk store. *)

type effort = Pass.effort = Fast | Standard
(** [Fast] trims the mapping-K candidates and dropout search for large
    problems (used by the scalability study); [Standard] is the full
    search. *)

type timings = {
  decomposition_s : float;  (** Pattern + mapping + elimination time. *)
  total_s : float;  (** Including dropout-policy construction. *)
}

type t = {
  config : Config.t;
  tau : float;
  device : Bose_hardware.Lattice.t;
  target : Bose_hardware.Target.t option;
      (** The hardware target compiled for ({!compile_for_target});
          [None] for the device/pattern entry points. Drives the
          default {!analyze} backend and the lint target checks. *)
  pattern : Bose_hardware.Pattern.t;
  mapping : Bose_mapping.Mapping.t;
  plan : Bose_decomp.Plan.t;  (** Decomposition of [mapping.permuted]. *)
  policy : Bose_dropout.Dropout.policy option;  (** [None] iff no dropout. *)
  timings : timings;
  trace : Bose_lint.Lint.pipeline_trace;
      (** Pass-manager execution record (registered passes with
          dependencies, executed pass names), audited by the lint
          engine's [pipeline] checker (BH09xx). *)
}

val compile :
  ?effort:effort ->
  ?tau:float ->
  ?disabled_passes:string list ->
  rng:Bose_util.Rng.t ->
  device:Bose_hardware.Lattice.t ->
  config:Config.t ->
  Bose_linalg.Mat.t ->
  t
(** [compile ~rng ~device ~config u]. [tau] is the unitary-approximation
    accuracy threshold (default 0.999). The unitary's dimension must not
    exceed the device size. [?disabled_passes] skips named skippable
    passes, storing their neutral artifact instead ([bosec compile
    --disable-pass]).

    One compile runs on the calling domain: no pass has a parallel
    path, so a single [bosec compile] ignores [--jobs]. Parallelism
    lives across compiles ({!compile_batch}, serve's batch fan-out).
    @raise Invalid_argument on size mismatch, non-square input, or an
    unknown/mandatory name in [disabled_passes]. *)

val compile_with_pattern :
  ?effort:effort ->
  ?tau:float ->
  ?disabled_passes:string list ->
  rng:Bose_util.Rng.t ->
  pattern:Bose_hardware.Pattern.t ->
  config:Config.t ->
  Bose_linalg.Mat.t ->
  t
(** Compile against an explicit elimination pattern — e.g. one built by
    {!Bose_hardware.Embedding.of_coupling} for triangular, hexagonal or
    irregular devices. The [device] field of the result is a dummy 1-row
    lattice; connectivity is whatever the pattern encodes. With a
    [config] that does not use the tree pattern, the pattern is replaced
    by a chain over the same number of qumodes. *)

val compile_for_target :
  ?effort:effort ->
  ?tau:float ->
  ?disabled_passes:string list ->
  rng:Bose_util.Rng.t ->
  target:Bose_hardware.Target.t ->
  config:Config.t ->
  Bose_linalg.Mat.t ->
  t
(** Compile for a registered hardware target ([bosec compile --target]).
    Grid targets ({!Bose_hardware.Target.device} = [Some _]) run the
    exact [compile ~device] path with the target-sized lattice — the
    [zigzag] built-in is bit-identical to today's default compile —
    while graph targets go through the target's derived elimination
    pattern (the result's [device] is the same placeholder 1-row
    lattice as {!compile_with_pattern}). Either way the result's
    [target] field is set.
    @raise Invalid_argument on a non-square input or a program larger
    than a grid target's device. *)

val compile_batch :
  ?effort:effort ->
  ?tau:float ->
  ?jobs:int ->
  rng:Bose_util.Rng.t ->
  device:Bose_hardware.Lattice.t ->
  (Bose_linalg.Mat.t * Config.t) list ->
  t list
(** Compile a job list. Results are in job order; the whole batch is
    wrapped in telemetry span ["compile.batch"], and each job
    increments the [compile.batch_jobs] counter.

    With [~jobs:n > 1] the job list is sharded into contiguous chunks
    across a [Bose_par.Pool] of [min n (length jobs)] domains, each
    compile with its own workspace. Every job draws from a private RNG
    stream keyed by the batch seed and the job's own content
    fingerprint, so the compiled plans and policies are bit-identical
    across all [jobs] values and shardings, and duplicate jobs compile
    to identical results.
    Pool telemetry lands in the [par.*] gauges (docs/METRICS.md).
    @raise Invalid_argument when [jobs < 1]. *)

val shot_mask : Bose_util.Rng.t -> t -> bool array option
(** Per-shot beamsplitter keep-mask: [None] when the configuration keeps
    everything; Rot-Cut masks are deterministic (hard threshold), the
    optimized configurations sample from the §VI distribution. *)

val shot_circuit :
  ?prelude:Bose_circuit.Gate.t list -> Bose_util.Rng.t -> t -> Bose_circuit.Circuit.t
(** Physical circuit for one shot, including the prelude (state
    preparation, already in physical qumode order). Timed by telemetry
    span ["compile.shot_circuit"]. *)

val approx_unitary : ?kept:bool array -> t -> Bose_linalg.Mat.t
(** Effective {e logical-space} unitary implemented by a shot with the
    given keep-mask (default: nothing dropped): permutations undone, so
    it is directly comparable with the input unitary. *)

val predicted_fidelity : t -> float
(** Compile-time estimate: the dropout policy's τ_K, or 1.0. *)

val beamsplitter_reduction : t -> float
(** Fraction of beamsplitters removed per shot (0 without dropout). *)

val beamsplitters_kept : t -> int

val small_angles : t -> threshold:float -> int
(** Rotations below an angle threshold in the compiled plan. *)

val lint :
  ?settings:Bose_lint.Lint.settings ->
  ?unitary:Bose_linalg.Mat.t ->
  t ->
  Bose_lint.Diag.t list
(** Run the full static-verification registry ({!Bose_lint.Lint.run})
    over the compiled result: the plan replays to the permuted unitary
    to ≤ 1e-8, every rotation addresses a pattern tree edge, the
    serialized plan round-trips, the dropout policy is well-shaped
    with expected fidelity ≥ τ, and the pass-manager trace shows every
    registered pass ran exactly once in dependency order (BH09xx).
    With [?unitary] (the
    program unitary
    handed to {!compile}), additionally checks that un-permuting the
    mapping recovers it bit-exactly and that the input itself is
    healthy (square, finite, unitary). Diagnostics carry the stable
    codes catalogued in docs/DIAGNOSTICS.md; a clean compile produces
    none. The subject carries the result's own hardware backend (see
    {!analyze}), so the BH11xx dataflow pass checks coupling
    feasibility against the device the program was compiled for. *)

val analyze : ?backend:Bose_flow.Flow.backend -> t -> Bose_flow.Flow.report
(** Dataflow analysis ({!Bose_flow.Flow.analyze}) of the compiled plan
    under the dropout policy's deterministic hard mask: ASAP/ALAP
    layering and commuting fronts, critical-path depth, per-mode
    liveness, sound fidelity/loss budget intervals, and coupling
    feasibility. The default backend is the compiled result's own: for
    target-compiled results, {!Bose_flow.Flow.backend_of_target} (the
    target's coupling graph, routing budget, depth ceiling, noise model
    and loss floor); otherwise the device lattice as coupling graph
    with the pattern's embedding as the label → site map (no depth
    limit, ideal noise). Pass [?backend] to ask "would this plan fit
    elsewhere?" instead. *)

val verify : t -> (unit, string) result
(** {!lint} shim, kept for callers that only need a yes/no: [Ok] when
    no [Error]-severity diagnostic fires, otherwise the first error
    rendered as a string. *)

val pp_summary : Format.formatter -> t -> unit
