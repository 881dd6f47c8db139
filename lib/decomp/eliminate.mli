(** The elimination engine: turn an interferometer unitary into a
    {!Plan.t} by following an elimination pattern (paper §IV-A).

    Each stage k (from k = N active qumodes down to 2) zeroes matrix row
    k-1 against the pattern's stage root and removes that root; the
    rotations produced are exactly the T_{m,n}(θ, φ) of Eq. (1). *)

val decompose :
  ?ws:Bose_linalg.Mat.workspace ->
  ?pool:Bose_par.Pool.t ->
  Bose_hardware.Pattern.t -> Bose_linalg.Mat.t -> Plan.t
(** [decompose pattern u] — [u] must be N×N unitary with
    N = pattern size. The returned plan satisfies
    [Plan.reconstruct plan ≈ u] to machine precision. Passing [?ws]
    reuses the workspace's slot-0 scratch as the elimination work matrix
    instead of allocating a fresh copy of [u].

    One engine runs at every N: it eliminates a transposed copy, so
    each column rotation runs at unit stride over the rows it must
    update, rows below the stage row are finished and keep their values
    (Λ reads only their diagonal), and every rotation is derived from
    the matrix without boxing (docs/ARCHITECTURE.md, substrate). The
    decomposition runs on the calling domain.

    [?pool] is accepted and ignored: one decomposition has no parallel
    path. The argument stays only because the repository benchmark
    ([perfbench/replica.ml], [par_check]) still passes one; it goes
    when that caller drops it.

    Telemetry: counts one [decomp.decompositions] and the plan's
    rotations in [decomp.beamsplitters], and observes every rotation's
    |θ| once into [decomp.rotation_angles].
    @raise Invalid_argument on a size mismatch or non-square input. *)

type schedule
(** A pattern's elimination order ({!Bose_hardware.Pattern.full_schedule})
    flattened into stage rows and pair arrays, for loops that eliminate
    many matrices along one pattern. *)

val schedule : Bose_hardware.Pattern.t -> schedule

val rotation_count : schedule -> int
(** Rotations per decomposition: N(N-1)/2. *)

val angles_into :
  schedule -> work:Bose_linalg.Mat.t -> Bose_linalg.Mat.t -> float array -> unit
(** [angles_into sched ~work u angles] writes |θ| of every rotation of
    the decomposition of [u], in plan order, into [angles] (length
    {!rotation_count}) — bit-identical to
    [Plan.angles (decompose pattern u)], but without building the plan
    or Λ. [work] is scratch: [u] is copied into it transposed and
    eliminated by the same walk as {!decompose}. Allocates no matrix
    and nothing per rotation.

    Telemetry: counts a decomposition and its rotations as {!decompose}
    does, but observes no angles — a search loop's scores are not plans,
    and [decomp.rotation_angles] holds the angles of plans built.
    @raise Invalid_argument on a size mismatch. *)

val decompose_baseline : ?ws:Bose_linalg.Mat.workspace -> Bose_linalg.Mat.t -> Plan.t
(** Chain-pattern decomposition (Reck-style, the paper's baseline),
    ignoring hardware structure. *)

val residual_off_diagonal :
  ?ws:Bose_linalg.Mat.workspace -> Bose_linalg.Mat.t -> Bose_hardware.Pattern.t -> float
(** Largest off-diagonal modulus left after running the elimination on a
    copy — a diagnostic that a pattern drives the matrix to Λ. *)
