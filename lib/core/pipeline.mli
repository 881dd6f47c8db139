(** The pass-manager pipeline: an ordered registry of {!Pass.t} values
    executed over a shared compile context, with per-pass telemetry
    spans and an execution trace the lint engine audits (BH09xx).

    [Compiler.compile] and [compile_with_pattern] are thin drivers over
    {!default}. Every pass runs on every compile: results are reused
    per request, above the compiler ([bosec serve]'s memory tier and
    disk store, keyed by the whole request). *)

type t
(** An ordered pass registry. *)

val make : Pass.t list -> t
(** Validate and freeze a registry: pass names unique, at most one
    producer per artifact kind, every dependency produced by an earlier
    pass. @raise Invalid_argument otherwise. *)

val default : t
(** The paper pipeline: [embed → map → decompose → dropout]. *)

val passes : t -> Pass.t list
(** The registry in execution order (perfbench's replica walks it). *)

val names : t -> string list
val find : t -> string -> Pass.t option

val dep_names : Pass.t list -> Pass.t -> string list
(** Names of the passes (among the given list) producing the artifact
    kinds a pass depends on. *)

type exec = {
  pass : string;
  elapsed_s : float;  (** [Sys.time] spent in the pass body. *)
}

type trace = exec list
(** One {!exec} per executed pass, in execution order. Disabled passes
    do not appear (their neutral artifact comes from [Pass.skip]). *)

val elapsed : trace -> string -> float

val run : ?disabled:string list -> t -> Pass.ctx -> trace
(** Execute the registry front to back over the context: each enabled
    pass runs its body inside its telemetry span and stores its
    artifact. Disabled passes store their [Pass.skip] artifact without
    running, outside spans and trace.
    @raise Invalid_argument for an unknown or mandatory name in
    [disabled]. *)

val lint_trace :
  ?disabled:string list -> t -> trace -> Bose_lint.Lint.pipeline_trace
(** Project a run onto the lint engine's pipeline-trace shape: the
    effective (post-disable) registry with resolved dependency names,
    plus the executed pass names. A clean run lints to zero BH09xx
    diagnostics. *)
