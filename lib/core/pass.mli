(** Typed compiler passes — the unit of the pass-manager pipeline.

    A pass is a named, registered stage of the Bosehedral compile
    (embed → map → decompose → dropout, paper §IV–§VI): it declares the
    artifact kind it {!type:t.produces}, the kinds it reads
    ({!type:t.depends}), the telemetry span that times it, a content
    {!Fingerprint} over its inputs, and an executable body over the
    shared compile {!ctx}. [Pipeline] owns sequencing and trace
    recording; [Compiler.compile] runs the default registry.

    The pass bodies are verbatim the stages the monolithic
    [Compiler.compile] used to hardcode: outputs are bit-exact with the
    pre-pipeline compiler, including RNG draw order (pinned by
    [test/test_pipeline.ml]). *)

type effort = Fast | Standard
(** Search-effort knob, re-exported as [Compiler.effort]. [Fast] trims
    the mapping-K candidates and dropout search for large problems. *)

val effort_name : effort -> string

type pattern_source =
  | Device  (** Embed into the compile device's lattice ([compile]). *)
  | Explicit of Bose_hardware.Pattern.t
      (** Caller-supplied pattern ([compile_with_pattern]); replaced by
          a chain when the config does not use the tree pattern. *)

type ctx = {
  unitary : Bose_linalg.Mat.t;
  config : Config.t;
  tau : float;
  effort : effort;
  device : Bose_hardware.Lattice.t;
  source : pattern_source;
  target : string option;
      (** Hardware-target identity ([Compiler.compile_for_target]),
          folded into every pass fingerprint; [None] (the legacy paths)
          leaves fingerprints bit-for-bit unchanged. *)
  rng : Bose_util.Rng.t;
  ws : Bose_linalg.Mat.workspace;
  mutable pattern : Bose_hardware.Pattern.t option;
  mutable mapping : Bose_mapping.Mapping.t option;
  mutable plan : Bose_decomp.Plan.t option;
  mutable policy : Bose_dropout.Dropout.policy option;
}
(** The shared compile context: immutable job inputs, then one mutable
    cell per artifact kind, filled in registry order. [policy = None]
    is a legitimate dropout result (configs without dropout), not an
    absent artifact. *)

val context :
  ?effort:effort ->
  ?tau:float ->
  ?target:string ->
  rng:Bose_util.Rng.t ->
  device:Bose_hardware.Lattice.t ->
  config:Config.t ->
  source:pattern_source ->
  ws:Bose_linalg.Mat.workspace ->
  Bose_linalg.Mat.t ->
  ctx
(** Fresh context with every artifact cell empty. [tau] defaults to
    0.999, [effort] to [Standard] — the [Compiler.compile] defaults. *)

type kind = Kpattern | Kmapping | Kplan | Kpolicy
(** Artifact kinds, for dependency declaration. *)

type artifact =
  | Apattern of Bose_hardware.Pattern.t
  | Amapping of Bose_mapping.Mapping.t
  | Aplan of Bose_decomp.Plan.t
  | Apolicy of Bose_dropout.Dropout.policy option

val store : ctx -> artifact -> unit
(** Slot an artifact into its context cell. *)

val copy_artifact : artifact -> artifact
(** Deep copy severing every mutable cell (matrices, element and weight
    arrays); patterns and permutations are immutable behind their
    interfaces and are shared. No compile path copies artifacts; kept
    because perfbench/replica.ml, which models a pass-level cache,
    calls it. *)

val pattern_exn : ctx -> Bose_hardware.Pattern.t
val mapping_exn : ctx -> Bose_mapping.Mapping.t
val plan_exn : ctx -> Bose_decomp.Plan.t
(** Artifact accessors.
    @raise Invalid_argument when the producing pass has not run. *)

(** Content fingerprints: 64-bit FNV-1a folds over bytes — unitary
    entry bits, config name, tau bits, effort, pattern structure. The
    primitives key [bosec serve]'s request caches ([Serve.compile_key])
    and [Compiler.compile_batch]'s per-job RNG streams. *)
module Fingerprint : sig
  type t = int64

  val seed : t
  val int : t -> int -> t
  val float : t -> float -> t
  val bool : t -> bool -> t
  val string : t -> string -> t
  val mat : t -> Bose_linalg.Mat.t -> t
  val pattern : t -> Bose_hardware.Pattern.t -> t
  val perm : t -> Bose_linalg.Perm.t -> t
  val to_hex : t -> string
end

type t = {
  name : string;  (** Registry key, e.g. ["map"]. *)
  span : string;  (** Telemetry span, e.g. ["compile.map"] (METRICS.md). *)
  doc : string;  (** One line, shown by [bosec compile --list-passes]. *)
  produces : kind;
  depends : kind list;  (** Artifact kinds this pass reads. *)
  fingerprint : ctx -> Fingerprint.t;
      (** Content fingerprint over the pass's inputs (the RNG stream
          excluded). No compile path reads it; kept because
          perfbench/replica.ml keys its pass-cache model with it. *)
  run : ctx -> artifact;
  skip : (ctx -> artifact) option;
      (** Neutral artifact when the pass is disabled
          ([--disable-pass]); [None] means the pass is mandatory. *)
}

val can_skip : t -> bool

val embed : t
val map : t
val decompose : t
val dropout : t
(** The four paper passes, in registry order. *)

val mapping_candidates : effort -> int -> int list option
val dropout_knobs : effort -> int -> int list * int
val polish_trials : effort -> int -> int
(** Effort-scaled search knobs, exposed for tests pinning bit-exactness
    against a hand-rolled pipeline. *)
