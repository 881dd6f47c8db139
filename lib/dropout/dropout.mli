(** Tunable probabilistic gate dropout (paper §VI).

    Given a decomposition plan, find the angle threshold |Θ| whose hard
    cut keeps the approximated-unitary fidelity just above the accuracy
    target τ; keep that count M of beamsplitters, but choose {i}which{/i}
    M per shot by sampling without replacement from the distribution
    p_i ∝ |θ_i/Θ|^K. K = 1 samples by raw angle magnitude; K → ∞
    degenerates to the hard threshold; the K in between that maximizes
    the average reconstructed fidelity τ_K is selected. *)

module Plan = Bose_decomp.Plan

type policy = {
  tau : float;  (** Requested accuracy threshold. *)
  theta_cut : float;  (** |Θ|, the angle threshold. *)
  kept_count : int;  (** M, beamsplitters kept per shot. *)
  power : int;  (** Selected K. *)
  weights : float array;  (** Per-rotation selection weights (unnormalized). *)
  expected_fidelity : float;  (** τ_K of the selected K. *)
}

val find_threshold :
  ?ws:Bose_linalg.Mat.workspace -> Plan.t -> Bose_linalg.Mat.t -> tau:float -> float * int
(** [(theta_cut, kept)] — the largest hard cut whose approximation
    fidelity against the original unitary stays ≥ τ. [theta_cut] is 0
    and [kept] the full count when even one drop violates τ.
    @raise Invalid_argument unless τ ∈ (0, 1]. *)

val make_policy :
  ?ws:Bose_linalg.Mat.workspace ->
  ?pool:Bose_par.Pool.t ->
  ?powers:int list ->
  ?iterations:int ->
  Bose_util.Rng.t ->
  Plan.t ->
  Bose_linalg.Mat.t ->
  tau:float ->
  policy
(** Full §VI procedure. [powers] defaults to [1; 2; 5; 10; 20; 50; 100];
    [iterations] (the paper's L) defaults to 40 reconstructions per
    candidate K. With [?ws] every fidelity probe replays into the
    workspace's slot-1 scratch instead of allocating a matrix.

    With [?pool] the Monte-Carlo fidelity trials of each candidate K
    fan out one task per trial, each drawing its mask from its own
    pre-split RNG stream, and fidelities are averaged in trial order —
    the policy is then a function of [rng] alone, identical at every
    pool size (a 1-domain pool included), though not byte-identical to
    the sequential-draw [?pool]-absent path. [?ws] is ignored for the
    pooled trials (a workspace is single-domain state). *)

val sample_kept : Bose_util.Rng.t -> policy -> Plan.t -> bool array
(** One per-shot selection: a keep-mask with exactly [kept_count]
    rotations kept, drawn from the policy distribution. *)

val kept_of_keys :
  ?heap:int array -> keys:float array -> ties:float array -> int -> bool array
(** [kept_of_keys ~keys ~ties m] keeps the [m] indices with the largest
    (key, tie) pairs — exactly the first [m] of
    [Bose_util.Rng.es_order ~keys ~ties], ties among equal pairs
    included — by a bounded heap over the dropped rest. The selection
    step of {!sample_kept}, exposed so tests can feed it exact ties.
    [?heap] (length ≥ the key count) is scratch reused across calls.
    @raise Invalid_argument unless 0 ≤ [m] ≤ the key count. *)

val hard_kept : policy -> Plan.t -> bool array
(** Deterministic mask keeping the [kept_count] largest angles — the
    Rot-Cut behaviour, also the K → ∞ limit. *)

val dropped_fraction : policy -> Plan.t -> float
(** Fraction of beamsplitters removed per shot, the paper's
    "BS gate # drop". *)
