(** Zero-dependency telemetry for the Bosehedral pipeline: span timers,
    counters, gauges and angle histograms, collected into a per-run
    {!Report.t} that renders as a human-readable table or as JSON.

    Design constraints (see docs/METRICS.md for the full metric list):

    - {b Off by default, near-zero cost when off.} Every recording
      entry point first reads one [bool ref]; when disabled, a counter
      bump is a single branch and {!Span.with_} is a tail call to its
      thunk. Hot loops ([Hafnian], [Permanent]) are therefore safe to
      instrument unconditionally.
    - {b One dependency.} Only [bose_util] (for its JSON codec) and
      the OCaml standard library, so every layer of the repo —
      including [bose_linalg] consumers — may link against it. The
      default clock is [Sys.time] (process CPU time, monotone
      non-decreasing); binaries that link [unix] should install a wall
      clock with {!set_clock} for truthful span times.
    - {b Deterministic program output.} Telemetry never draws
      randomness and never alters control flow: a run with telemetry
      enabled produces byte-identical circuits to a disabled run
      (pinned by [test/test_obs.ml]).

    Metrics are registered once (first [make]) in a global registry and
    accumulate until {!reset}. Names are dotted paths,
    [<area>.<metric>], e.g. ["decomp.eliminations"]. *)

val enable : unit -> unit
(** Turn recording on. Does not clear previously recorded values. *)

val disable : unit -> unit
(** Turn recording off; registered metrics keep their values. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric (counters, gauges, histograms, spans).
    Registration survives: the metric set of a later {!Report.capture}
    is unchanged. *)

val registered : unit -> string list
(** Names of every counter, gauge and histogram registered so far
    (sorted, deduplicated). Spans are excluded — they register on first
    close, not at module load. Powers the doc-consistency gate
    ([test/check_docs.ml]) that keeps docs/METRICS.md from rotting. *)

val set_clock : (unit -> float) -> unit
(** Replace the span clock (seconds, monotone non-decreasing). Default
    is [Sys.time]. *)

val now : unit -> float
(** Read the installed clock — the time base spans are recorded in.
    Exposed so other instrumentation (the [bose_par] pool's idle-time
    gauge, benchmark wall-clock rows) shares the span time base. *)

val on_span_close :
  (name:string -> depth:int -> elapsed_s:float -> unit) option ref
(** Live-trace hook: called as each enabled span closes, with its
    nesting depth at open time. Used by [bosec --trace]. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up — [make] is idempotent per name) a counter.
      Intended for top-level [let]s in instrumented modules, so hot
      paths pay no lookup. *)

  val incr : ?by:int -> t -> unit
  (** No-op while disabled. [by] defaults to 1. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t

  val set : t -> float -> unit
  (** Record the latest value. No-op while disabled. *)

  val observe_max : t -> float -> unit
  (** Keep the maximum of the recorded values — e.g. the largest
      hafnian submatrix dimension seen. No-op while disabled. *)

  val value : t -> float option
  (** [None] until the first [set]/[observe_max] after a {!reset}. *)
end

module Histo : sig
  type t

  val make : string -> bounds:float array -> t
  (** Fixed buckets: value [v] lands in the first bucket with
      [v <= bounds.(i)], or in the overflow bucket past the last bound.
      [bounds] must be strictly increasing.
      @raise Invalid_argument otherwise. *)

  val observe : t -> float -> unit
  (** No-op while disabled. *)

  val total : t -> int
end

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ "compile.map" f] times [f ()] on the installed clock and
      accumulates (count, total, max) under the span name; nesting is
      tracked so reports can indent. Exceptions propagate, the span
      still closes. When disabled this is exactly [f ()]. *)
end

(** Per-domain collectors for parallel sections.

    The global registries are single-domain mutable state; a pool
    worker must never record into them directly. Instead the pool owner
    creates one {!Local.sink} per worker, each worker {!Local.install}s
    its sink (domain-local storage) so that {e every} recording entry
    point — counters, gauges, histograms, spans — routes into it, and
    after the join barrier the owner {!Local.merge}s the sinks into the
    global registry. Recording stays lock-free; the only added cost
    while enabled is one domain-local read per record.

    Merge semantics: counters and histograms add; [Gauge.set] values
    overwrite in merge order while [Gauge.observe_max] values max;
    spans add count/total and max the max. Worker-side span nesting
    depths are relative to the sink (0 = the task's outermost span),
    and the {!on_span_close} live-trace hook fires only for
    owner-domain spans. Metric registration ([make]) must still happen
    on the main domain — the repo's top-level [let] registration idiom
    guarantees this. *)
module Local : sig
  type sink

  val create : unit -> sink
  (** Fresh empty sink (owner side, one per worker domain). *)

  val install : sink -> unit
  (** Route this domain's recording into [sink] (worker side, before
      running tasks). *)

  val uninstall : unit -> unit
  (** Restore direct global recording for this domain. *)

  val installed : unit -> bool

  val merge : sink -> unit
  (** Fold a quiesced sink into the global registry and reset it.
      Owner side, after the join barrier — never while the sink's
      worker may still record. *)
end

module Report : sig
  type span = {
    name : string;
    count : int;
    total_s : float;
    max_s : float;
    depth : int;  (** Nesting depth at first open (0 = top level). *)
  }

  type histogram = {
    name : string;
    bounds : float array;
    counts : int array;  (** [Array.length bounds + 1]: last = overflow. *)
    sum : float;
  }

  type t = {
    spans : span list;
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : histogram list;
  }
  (** Every list is sorted by name. [counters] includes registered
      counters that are still zero (the schema is stable across runs of
      the same binary); [gauges] and [histograms] include only metrics
      that recorded at least one value, and [spans] only spans that
      closed at least once. *)

  val capture : unit -> t
  (** Snapshot the registry (whether or not recording is enabled). *)

  val is_empty : t -> bool
  (** No span closed, no counter nonzero, no gauge/histogram touched. *)

  val span : t -> string -> span option

  val counter : t -> string -> int option

  val gauge : t -> string -> float option

  val pp : Format.formatter -> t -> unit
  (** Human-readable table (spans, then counters, gauges, histograms). *)

  val to_json : t -> Bose_util.Json.t
  (** The schema documented in docs/METRICS.md:
      [{"version": 1, "spans": [...], "counters": [...],
        "gauges": [...], "histograms": [...]}]. *)

  val of_json : Bose_util.Json.t -> (t, string) result
  (** Inverse of {!to_json} (accepts any field order); [Error] carries
      a validation message. Finite floats round-trip exactly through
      [Json.to_string]/[Json.parse]; non-finite ones render as [null]
      and read back as [nan]. *)

  val write_file : string -> t -> unit
  (** Write {!to_json} as one line of JSON text (plus trailing
      newline) to a file. *)
end
