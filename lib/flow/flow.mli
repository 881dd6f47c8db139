(** Static dataflow analysis over decomposition plans.

    A {!Bose_decomp.Plan.t} is a straight-line program: K Givens
    rotations, each touching one mode pair, followed by the diagonal Λ.
    That makes plans amenable to classic dataflow analysis, and this
    module is the engine: dependency layering (ASAP/ALAP schedules,
    critical-path depth, commuting rotation fronts — the row-disjoint
    partition of OptQC, and the exact schedule a parallel elimination
    executor would run), per-mode liveness (first/last touch, modes left
    dead by dropout), coupling-graph feasibility against a hardware
    backend, and interval-arithmetic fidelity/loss budgets that are
    {e sound}: the true simulated fidelity always lies inside the
    reported interval.

    Everything here is pure analysis — no matrices are allocated and no
    circuit is simulated; cost is O(K) plus one BFS per distinct source
    mode for feasibility. The results surface in three places: the
    BH11xx lint pass ({!Bose_lint}), [bosec analyze], and the [analyze]
    op of the compile service. *)

(** {1 Dependency layering} *)

type layering = {
  asap : int array;
      (** Per-rotation ASAP layer (0-based): the earliest layer the
          rotation can run in, given that two rotations sharing a mode
          must run in elimination order. [-1] for dropped rotations. *)
  alap : int array;
      (** Per-rotation ALAP layer: the latest layer that does not
          stretch the schedule beyond [depth]. [-1] for dropped. *)
  depth : int;
      (** Critical-path depth = number of fronts. 0 when nothing is
          kept. *)
  fronts : int array array;
      (** [fronts.(l)] = indices of the rotations in ASAP layer [l], in
          elimination order. Rotations within a front touch pairwise
          disjoint mode pairs, so they commute and can execute
          simultaneously. *)
}

val layering : ?kept:bool array -> Bose_decomp.Plan.t -> layering
(** Dependency layering of the kept rotations. [?kept] is a dropout
    mask over rotations (length must equal the rotation count); dropped
    rotations keep only their phase shifter, which folds into later
    single-mode gates and costs no schedule slot. *)

val slack : layering -> int array
(** [alap - asap] per rotation ([-1] entries for dropped rotations).
    Zero slack marks the critical path. *)

val greedy_front_count : ?kept:bool array -> Bose_decomp.Plan.t -> int
(** Independent oracle for {!layering}'s depth: repeatedly peel the
    maximal prefix-closed, mode-disjoint front off the remaining
    rotations and count the sweeps. Implemented as a direct simulation
    (no layer arithmetic) so the [depth = greedy_front_count] property
    test cross-checks two distinct computations. *)

(** {1 Per-mode liveness} *)

type liveness = {
  first_touch : int array;
      (** Per mode: index of the first kept rotation whose beamsplitter
          addresses the mode, or [-1] if none does. *)
  last_touch : int array;  (** Index of the last kept touch, or [-1]. *)
  touches : int array;  (** Number of kept rotations touching the mode. *)
  dead : int list;
      (** Modes with zero kept touches, ascending. A dead mode never
          mixes with the rest of the interferometer — its photons pass
          through phase shifters only — which after dropout usually
          signals an over-aggressive [tau]. *)
}

val liveness : ?kept:bool array -> Bose_decomp.Plan.t -> liveness

(** {1 Budget intervals} *)

type interval = { lo : float; hi : float }

val fidelity_interval : ?kept:bool array -> Bose_decomp.Plan.t -> interval
(** Sound interval for [Plan.fidelity ?kept plan u] against the plan's
    own reconstruction [u]: dropping rotation i replaces T(θᵢ,φᵢ) by
    T(0,φᵢ), and ‖T(θ,φ) − T(0,φ)‖₂ ≤ ‖·‖_F = 2√(1−cos θ), so by
    telescoping ‖U_app − U‖₂ ≤ Σ_dropped 2√(1−cᵢ) and the fidelity
    |tr(U_app U†)|/N lies in [max(0, 1 − Σ), 1]. The measured value is
    typically far inside the interval (the bound ignores cancellation);
    what the property test pins is {e bracketing}, never tightness. *)

val transmission :
  ?kept:bool array -> noise:Bose_circuit.Noise.t -> Bose_decomp.Plan.t ->
  float array
(** Per-mode photon transmissivity η under the noise model, walking the
    same gate stream [Plan.to_circuit ~style:Tunable] emits: each kept
    rotation is a phase shifter on [m] plus a beamsplitter on [(m,n)],
    each dropped rotation keeps only the phase shifter, and Λ is one
    phase shifter per mode. A gate with loss rate ℓ multiplies each
    touched mode's η by (1 − ℓ). *)

val transmission_interval :
  ?kept:bool array -> noise:Bose_circuit.Noise.t -> Bose_decomp.Plan.t ->
  interval
(** [{lo; hi}] = min/max of {!transmission} over modes — the layer-by-
    layer loss budget's envelope. [{lo = 1.; hi = 1.}] for an ideal
    noise model, and [lo = hi] for a 0-mode-free uniform walk. *)

(** {1 Hardware backends and feasibility} *)

type backend = {
  coupling : Bose_hardware.Coupling.t option;
      (** Physical coupling graph; [None] skips feasibility checking. *)
  sites : int array option;
      (** Optional qumode-label → site embedding (e.g.
          {!Bose_hardware.Pattern.site} of the compile pattern). [None]
          means labels {e are} sites. *)
  routing_budget : int;
      (** Extra swap hops allowed per rotation: a pair is feasible when
          its site distance is ≤ 1 + routing_budget. *)
  max_depth : int option;  (** Depth ceiling, if the backend has one. *)
  noise : Bose_circuit.Noise.t;
  min_transmission : float;
      (** Loss budget floor: every mode's η must stay ≥ this. *)
}

val backend :
  ?coupling:Bose_hardware.Coupling.t ->
  ?sites:int array ->
  ?routing_budget:int ->
  ?max_depth:int ->
  ?noise:Bose_circuit.Noise.t ->
  ?min_transmission:float ->
  unit -> backend
(** Defaults: no coupling, identity sites, budget 0, no depth limit,
    {!Bose_circuit.Noise.ideal}, floor 0 — i.e. a backend that
    constrains nothing. *)

val backend_of_target :
  ?sites:int array -> n:int -> Bose_hardware.Target.t -> backend
(** The canonical backend for an [n]-qumode program on a hardware
    target: the target's coupling graph sized to [n], its routing
    budget, its depth ceiling at [n], its noise model and loss floor.
    [?sites] is the label → site embedding (e.g. the compile pattern's
    {!Bose_hardware.Pattern.site} map); omitted, labels are sites.
    Deriving backends here — not at call sites — is what keeps
    [Compiler.lint], [bosec analyze] and the serve [analyze] op
    agreeing on what a target means. *)

type infeasible_rotation = {
  rotation : int;  (** Index into the plan's elements. *)
  pair : int * int;  (** The rotation's (m, n) qumode labels. *)
  distance : int;
      (** BFS site distance; [-1] when a label maps to no valid site. *)
}

val infeasible : backend -> ?kept:bool array -> Bose_decomp.Plan.t ->
  infeasible_rotation list
(** Kept rotations whose mode pair is not an edge of (nor routable
    within [routing_budget] on) the backend coupling graph. Empty when
    the backend has no coupling graph. BFS distances are memoized per
    source site, so cost is O(K + V·(V+E)) worst case. *)

(** {1 Front validation} *)

val check_fronts :
  ?kept:bool array -> Bose_decomp.Plan.t -> int list list -> string option
(** Validate an externally supplied commuting-front schedule (e.g. from
    a parallel executor) against the plan: every kept rotation exactly
    once, no dropped or out-of-range indices, mode-disjoint within each
    front, and elimination order preserved across fronts (if kept
    rotations i < j share a mode, i's front must come first). Returns
    [Some reason] for the first violation found, [None] if valid. The
    fronts computed by {!layering} always validate. *)

(** {1 Reports} *)

type report = {
  modes : int;
  rotations : int;
  kept_rotations : int;
  layers : layering;
  live : liveness;
  fidelity : interval;
  per_mode_transmission : float array;
  transmission_range : interval;
  infeasible_rotations : infeasible_rotation list;
  unused_sites : int list;
      (** Sites of the backend coupling graph no live mode maps to
          (empty without a coupling graph). *)
  max_depth : int option;  (** Echoed backend limits, for gating. *)
  min_transmission : float;
}

val analyze :
  ?kept:bool array -> ?backend:backend -> Bose_decomp.Plan.t -> report
(** Run the full analysis. Without [?backend], feasibility is skipped
    and budgets use the ideal noise model. Emits the [flow.*]
    telemetry. *)

val report_to_json : report -> Bose_util.Json.t
(** JSON object: depth, fronts, per-mode liveness table,
    budget intervals, infeasible pairs, limits. Stable field set —
    [bosec analyze] and the serve [analyze] op both emit it. *)

val pp_report : Format.formatter -> report -> unit
(** Human-oriented multi-line summary. *)
