(** A reusable fixed-size domain pool, stdlib-only
    ([Domain]/[Mutex]/[Condition]).

    The pool owns [domains - 1] long-lived worker domains; the owner
    domain participates in every batch, so [create ~domains:n] applies
    [n]-way parallelism with [n - 1] spawns. Tasks of a batch are
    claimed from a shared cursor under the pool mutex — coarse-grained
    on purpose: every intended workload (a compile job, a chain of
    sampler shots) runs orders of magnitude longer than a mutex
    round-trip.

    {b Telemetry.} Each worker domain carries its own
    {!Bose_obs.Obs.Local} sink, so pool tasks may record counters,
    gauges, histograms and spans freely without racing the global
    registry; the owner merges all sinks at the join barrier and then
    records the [par.domains], [par.tasks] and [par.steal_idle_ns]
    gauges (docs/METRICS.md).

    {b Determinism.} The pool schedules; it never draws randomness.
    Callers that need parallel output bit-identical to sequential must
    pre-split their RNG into one stream per {e task} (not per domain) —
    see {!Bose_util.Rng.split} — so results depend only on the task
    index, never on which domain ran it.

    {b Exceptions.} A task that raises does not poison the batch: the
    remaining tasks still run, and after the barrier the exception of
    the lowest-indexed failed task is re-raised (with its backtrace) on
    the owner. The pool remains usable afterwards. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains. [domains]
    is the total parallelism including the owner; [~domains:1] spawns
    nothing and degrades every entry point to an inline sequential
    loop.
    @raise Invalid_argument when [domains < 1]. *)

val domains : t -> int
(** The configured total parallelism (owner included). *)

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] executes [f 0 .. f (tasks - 1)], each exactly
    once, across the pool, and returns after all complete. Any number
    of tasks is fine — zero returns immediately, more tasks than
    domains queue on the shared cursor.
    @raise Invalid_argument on negative [tasks], on nested parallelism
    (calling [run] from inside a pool task, whichever domain it landed
    on — it would deadlock or corrupt the shared cursor), or on a pool
    that was {!shutdown}. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] is [Array.map f xs] with each element a pool task;
    results are in input order. *)

val chunked_iter : t -> chunks:int -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
(** [chunked_iter t ~chunks ~n f] partitions [0 .. n - 1] into at most
    [chunks] contiguous slices of near-equal size and runs
    [f ~chunk ~lo ~hi] (half-open [\[lo, hi)]) as one task per slice.
    The slice boundaries depend only on [chunks] and [n] — callers key
    per-chunk state (caches, workspaces, RNG streams) off [chunk] and
    get scheduling-independent results. *)

val shutdown : t -> unit
(** Stop and join every worker. Idempotent; the pool rejects further
    {!run}/{!map}/{!chunked_iter} calls afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] creates a pool, applies [f], and always
    {!shutdown}s it, even when [f] raises. *)
