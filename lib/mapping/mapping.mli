(** Logical-to-physical qumode mapping via row/column permutations of the
    interferometer unitary (paper §V).

    The permuted unitary [U_per = P_r · U · P_c] is what gets decomposed
    and executed; both permutations are realized for free by relabeling
    qumodes before and after the program (§V-B):

    - logical input [i] is prepared on physical qumode
      [Perm.apply col_perm i];
    - logical output [i] is read from physical qumode
      [Perm.apply row_perm i].

    The optimizer (§V-D) greedily exchanges main-path-region columns with
    branch-region columns to raise the K-th-largest main-region row mass,
    assigns heavy leftover columns to branches near the start point, and
    orders rows so the heaviest main-region rows are eliminated first. *)

type t = {
  permuted : Bose_linalg.Mat.t;  (** U_per, the unitary to decompose. *)
  row_perm : Bose_linalg.Perm.t;
  col_perm : Bose_linalg.Perm.t;
  indicator_k : int;  (** The K used by the accepted indicator. *)
  small_angles : int;  (** |θ| < 0.1 count achieved after decomposition. *)
}

val trivial : Bose_linalg.Mat.t -> t
(** Identity mapping (used by the Baseline and Decomp-Opt configurations). *)

val optimize :
  ?ws:Bose_linalg.Mat.workspace ->
  ?theta_threshold:float ->
  ?candidate_ks:int list ->
  Bose_hardware.Pattern.t ->
  Bose_linalg.Mat.t ->
  t
(** Full §V-D optimization. [candidate_ks] defaults to
    [{N/4, N/3, N/2, 2N/3}]; for each K the column search and row sort
    run and the K producing the most rotations with
    |θ| < [theta_threshold] (default 0.1) wins. [?ws] is threaded to the
    trial decompositions so the candidate search reuses one elimination
    work matrix. *)

val polish :
  ?ws:Bose_linalg.Mat.workspace ->
  ?trials:int ->
  ?tau:float ->
  rng:Bose_util.Rng.t ->
  Bose_hardware.Pattern.t ->
  t ->
  t
(** Hill-climbing refinement on top of {!optimize}: random row/column
    swaps of the permuted unitary are accepted whenever they increase
    the number of rotations droppable within the fidelity budget
    (1 − [tau])·N (default τ = 0.95 as a generic proxy), measured by an
    actual elimination ({!Bose_decomp.Eliminate.angles_into}, the
    decomposition's angles without its plan). Each trial costs one
    O(N³) elimination, so [trials] (default 400) should shrink with N —
    the compiler scales it. The accepted swaps are composed into the
    returned permutations, so the §V-B relabeling identity keeps
    holding. The loop allocates one matrix, the working copy of the
    permuted unitary; with [?ws] the trials eliminate in the
    workspace's work matrix, otherwise in one more matrix of their
    own. *)

val main_region_row_mass : Bose_hardware.Pattern.t -> Bose_linalg.Mat.t -> float array
(** α_i = Σ_{j ∈ main region} |u_ij|² for every row — §V-D's indicator
    ingredients, exposed for tests and the mapping example. *)

val relabel_output : t -> int array -> int array
(** Convert a measured physical Fock pattern into the logical pattern. *)

val input_site : t -> int -> int
(** Physical qumode that prepares logical input [i]. *)

val recovered_unitary : t -> Bose_linalg.Mat.t
(** [P_rᵀ · U_per · P_cᵀ] — must equal the original unitary; exposed so
    tests can verify the zero-cost-relabeling identity of §V-B. *)
