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

    Below [Mat.blocking_threshold] the per-call engine eliminates a
    transposed copy, so each column rotation runs at unit stride over
    the rows it must update (docs/ARCHITECTURE.md, small-N engines).
    At N ≥ [Mat.blocking_threshold] the elimination switches to the
    fused sweep engine: each stage derives its rotations serially on
    the stage row, then applies the packed stage to the rows above it —
    the rows later stages still read — in one bulk pass, chunked across
    [?pool] when present. Rows below the stage row are finished and
    keep their values; Λ reads only their diagonal. Engine choice
    depends only on N — the plan is bit-identical at every pool size,
    pool or no pool (docs/ARCHITECTURE.md, determinism contract).
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
    [Plan.angles (decompose pattern u)], with the same engine choice and
    the same telemetry, but without building the plan or Λ. [work] is
    scratch: [u] is copied into it (transposed below
    [Mat.blocking_threshold]) and eliminated by the same walk as
    {!decompose}. Allocates no matrix, and below the threshold nothing
    per rotation.
    @raise Invalid_argument on a size mismatch. *)

val decompose_baseline :
  ?ws:Bose_linalg.Mat.workspace -> ?pool:Bose_par.Pool.t -> Bose_linalg.Mat.t -> Plan.t
(** Chain-pattern decomposition (Reck-style, the paper's baseline),
    ignoring hardware structure. *)

val residual_off_diagonal :
  ?ws:Bose_linalg.Mat.workspace -> Bose_linalg.Mat.t -> Bose_hardware.Pattern.t -> float
(** Largest off-diagonal modulus left after running the elimination on a
    copy — a diagnostic that a pattern drives the matrix to Λ. *)
