(** Static verification passes over the compiler's artifacts.

    Bosehedral's pass contracts (documented in [Compiler], paper
    §IV–§VI) are all properties of the compact N×N unitary and the
    artifacts derived from it — pattern, mapping, plan, dropout policy,
    shot circuit — so they can be checked without ever running the
    simulator. This module is the checker registry: each {!pass} reads
    the slices of a {!subject} it understands and emits structured
    {!Diag.t} diagnostics with stable codes (catalogue in
    docs/DIAGNOSTICS.md).

    [Compiler.verify] is a thin shim over {!run}; [bosec check]
    exposes the same engine on serialized artifacts. Passes never
    raise on malformed input — that is the point: violations come back
    as data. Every pass is timed under telemetry span [lint.<pass>]
    (plus [lint] overall), with counters [lint.runs],
    [lint.diagnostics] and [lint.errors]. *)

module Diag = Diag

type pipeline_trace = {
  registered : (string * string list) list;
      (** The effective pass registry for the compile, in registry
          order: pass name plus the names of the passes whose artifacts
          it declares as inputs. *)
  executed : string list;  (** Pass names in execution order. *)
}
(** Execution record of a pass-manager pipeline (produced by
    [Bosehedral.Pipeline], consumed by the [pipeline] pass, BH09xx):
    every registered pass must execute exactly once, no unregistered
    pass may execute, and no pass may execute before its declared
    dependencies. *)

type subject = {
  unitary : Bose_linalg.Mat.t option;
      (** The program unitary: health-checked (BH01xx) and, when a
          mapping is present, used as the bit-exact recovery reference
          (BH0304). *)
  pattern : Bose_hardware.Pattern.t option;
  coupled : (int -> int -> bool) option;
      (** Physical coupling predicate over flat {e site} indices (for
          pattern edges, BH0202) and over qumode indices (for circuit
          beamsplitters, BH0602). When absent, coupling checks are
          skipped. *)
  mapping : Bose_mapping.Mapping.t option;
  plan : Bose_decomp.Plan.t option;
  reference : Bose_linalg.Mat.t option;
      (** What the plan must replay to — the {e permuted} unitary
          (BH0401). *)
  policy : Bose_dropout.Dropout.policy option;
  min_fidelity : float option;
      (** Threshold for BH0503; defaults to the policy's own τ. *)
  circuit : Bose_circuit.Circuit.t option;
  perms : (string * int array) list;
      (** Raw permutation arrays to bijection-check (BH0302). *)
  views : (string * Bose_linalg.Mat.View.t) list;
      (** Named views at an in-place kernel call site; every
          overlapping pair is reported (BH0701). *)
  rngs : (string * Bose_util.Rng.t) list;
      (** Named RNG streams handed to concurrent pool tasks; every
          physically-shared pair ({!Bose_util.Rng.same}) is reported
          (BH1001) — a shared stream races and destroys
          replayability. *)
  pipeline : pipeline_trace option;
      (** Pass-manager execution record; registry/execution mismatches
          are reported (BH09xx). *)
  cache_dir : string option;
      (** A [bosec serve] disk-cache directory to audit
          ([Bose_store.Diskcache.audit], read-only): malformed index,
          missing/corrupt/orphan object files, stale sizes (BH12xx). *)
  backend : Bose_flow.Flow.backend option;
      (** Hardware backend for the dataflow pass (BH11xx): coupling
          feasibility within the routing budget, depth ceiling,
          loss-budget floor under the noise model. Without it the pass
          still reports dead modes and validates [fronts]. *)
  fronts : int list list option;
      (** An externally supplied commuting-front schedule to validate
          against the plan (BH1105) — e.g. what a parallel executor
          intends to run. *)
  target_name : string option;
      (** Hardware target the subject claims to run on (BH13xx):
          unknown names are reported against the
          {!Bose_hardware.Target} registry, plans are gated against the
          target's depth ceiling (only when no [backend] is attached —
          with one, BH1102 already covers depth), and a mismatching
          [compiled_target] is a provenance error. *)
  compiled_target : string option;
      (** Target the artifact records it was compiled for (e.g. serve
          cache metadata); differing from [target_name] is BH1302. *)
}

val empty : subject
(** All fields absent; build subjects with record update,
    [{ Lint.empty with plan = Some p }]. *)

type pass = {
  name : string;  (** Registry key, e.g. ["plan"]. *)
  codes : string list;  (** Diagnostic codes this pass can emit. *)
  doc : string;  (** One-line description (shown by [bosec check --list]). *)
  run : subject -> Diag.t list;
}

val passes : pass list
(** The registry, in pipeline order: [unitary], [pattern], [perms],
    [mapping], [plan], [policy], [flow], [target], [circuit],
    [aliasing], [rng], [pipeline], [diskcache]. *)

type settings = {
  disabled_passes : string list;  (** Pass names to skip. *)
  disabled_codes : string list;  (** Codes to drop after running. *)
  werror : bool;  (** Promote warnings to errors ([--Werror]). *)
}

val default_settings : settings
(** Everything enabled, no promotion. *)

val run : ?settings:settings -> subject -> Diag.t list
(** Run every enabled pass over the subject, in registry order. Per
    (pass, code) emission is capped at 16 diagnostics — a suppression
    note (code BH0001, severity Info) reports how many more fired — so
    a fully-poisoned artifact cannot flood the output. *)

val plan_structure : Bose_decomp.Plan.t -> Diag.t list
(** The structural BH0403/BH0406 errors the [plan] pass reports: a mode
    count, Λ length, qumode pair or row out of range, a non-finite
    number, or a quadruple denormalized past the kernel tolerance. Empty
    iff the plan is safe to replay and analyze — callers that rebuild a
    dropout policy or run {!Bose_flow.Flow.analyze} on an untrusted plan
    check this first. *)

val errors : Diag.t list -> int
val warnings : Diag.t list -> int

val load_plan : string -> (Bose_decomp.Plan.t, Diag.t) result
(** Read a {!Bose_decomp.Plan.save} file; I/O and parse failures come
    back as a BH0801 diagnostic with the failing 1-based line. *)

val load_unitary : string -> (Bose_linalg.Mat.t, Diag.t) result
(** Read a {!Bose_linalg.Unitary.save} file; failures come back as a
    BH0802 diagnostic with the failing line. *)
