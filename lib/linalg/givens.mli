(** The two-dimensional rotations T_{m,n}(θ, φ) of the interferometer
    decomposition (paper Eq. 1) and the elimination step built on them.

    [T m n theta phi] differs from the identity only at rows/columns
    [m], [n]:
    {v
       T[m][m] = e^{iφ} cos θ     T[m][n] = -sin θ
       T[n][m] = e^{iφ} sin θ     T[n][n] =  cos θ
    v}

    A rotation is stored in the precomputed form the in-place kernels
    consume — (cos θ, sin θ) and the unit phase e^{iφ} — rather than
    as raw angles: {!eliminate} derives these four numbers
    algebraically from the entries being zeroed, and replay feeds them
    straight back to the [Mat.rot_*_cs] kernels, so neither direction
    pays trigonometry. The angles themselves are recovered on demand
    by {!theta}/{!phi} (one atan2 each) for circuit emission and
    dropout thresholding.

    The elimination right-multiplies the working matrix by T†, zeroing
    entry [(row, m)] against entry [(row, n)] (paper Eq. 2), so a full
    decomposition reaches [U · T₁† · T₂† ⋯ = Λ], i.e.
    [U = Λ · (⋯ T₂ · T₁)]. *)

type rotation = {
  m : int;  (** Column/qumode whose entry gets zeroed. *)
  n : int;  (** Column/qumode that absorbs the amplitude. *)
  c : float;  (** cos θ; θ is the beamsplitter angle, in [\[0, π/2\]]. *)
  s : float;  (** sin θ. *)
  ere : float;  (** Re e^{iφ}; φ is the phase-shifter angle. *)
  eim : float;  (** Im e^{iφ}. *)
}

val of_angles : m:int -> n:int -> theta:float -> phi:float -> rotation
(** Build a rotation from raw angles (cos/sin once, at construction). *)

val theta : rotation -> float
(** The beamsplitter angle θ = atan2 [s] [c], in [\[0, π/2\]] for
    rotations produced by {!eliminate}. *)

val phi : rotation -> float
(** The phase-shifter angle φ = atan2 [eim] [ere], in [(-π, π]]. *)

val drop_mixing : rotation -> rotation
(** The rotation with its beamsplitter removed (θ ← 0) but its phase
    kept — what physically remains when dropout discards an MZI. *)

val matrix : int -> rotation -> Mat.t
(** [matrix dim r] is the dense N×N matrix of T_{m,n}(θ, φ). *)

val eliminate : ?nrows:int -> Mat.t -> row:int -> m:int -> n:int -> rotation
(** [eliminate u ~row ~m ~n] computes the rotation such that
    right-multiplying [u] by T† zeroes [u(row, m)], and applies the
    update to [u] in place (only columns [m] and [n] change). After
    the call, |u(row, n)|² has absorbed the old |u(row, m)|².
    [?nrows] restricts the column update to the first [nrows] rows —
    sound only when the caller knows both columns are zero below, as
    in the Clements sweeps. *)

val apply_t_dagger_right : Mat.t -> rotation -> unit
(** In-place [u ← u · T†]. *)

val apply_t_right : Mat.t -> rotation -> unit
(** In-place [u ← u · T]; the inverse of {!apply_t_dagger_right}. *)

val solve : Mat.t -> row:int -> m:int -> n:int -> rotation
(** The rotation {!eliminate} would apply, without mutating anything. *)

val angle_for : Mat.t -> row:int -> m:int -> n:int -> float
(** The θ that {!eliminate} would produce, without mutating anything. *)

val apply_t_left : Mat.t -> rotation -> unit
(** In-place [u ← T · u]. *)

val apply_t_dagger_left : Mat.t -> rotation -> unit
(** In-place [u ← T† · u]; the inverse of {!apply_t_left}. *)

val eliminate_left : ?first:int -> Mat.t -> col:int -> m:int -> n:int -> rotation
(** [eliminate_left u ~col ~m ~n] computes the rotation such that
    left-multiplying [u] by T_{m,n}(θ,φ) zeroes [u(m, col)] against
    [u(n, col)], and applies the update in place (only rows [m] and
    [n] change). Used by the two-sided Clements elimination.
    [?first] restricts the row update to columns [first ..] — sound
    only when both rows are zero to the left. *)

(** {1 Unboxed derivation}

    The elimination engine derives each rotation into one
    reusable {!quad} instead of a fresh {!rotation}: the same
    arithmetic as {!solve}, with the entries read straight off the
    matrix and the result kept in flat float storage, so a score-only
    walk allocates nothing per rotation. *)

type quad = {
  mutable qc : float;  (** cos θ *)
  mutable qs : float;  (** sin θ *)
  mutable qere : float;  (** Re e^{iφ} *)
  mutable qeim : float;  (** Im e^{iφ} *)
}

val quad : unit -> quad
(** A fresh quadruple, initialised to the identity rotation. *)

val of_quad : m:int -> n:int -> quad -> rotation
(** The rotation on qumodes [m], [n] that [quad] holds. *)

val quad_theta : quad -> float
(** {!theta} of the rotation [quad] holds: atan2 [qs] [qc]. *)

val eliminate_transposed : quad -> Mat.t -> row:int -> m:int -> n:int -> unit
(** [eliminate_transposed q wt ~row ~m ~n], where [wt] holds uᵀ:
    derives into [q] the rotation [eliminate ~nrows:(row + 1) u ~row ~m ~n]
    would, and makes the same update to uᵀ — rows [m] and [n] of [wt]
    over columns [0 .. row] (see {!Mat.rot_cols_t_dagger_transposed}),
    then pins u(row, m) to zero. Skips both for the identity, as
    {!eliminate} does. Bit-identical to {!eliminate} entry for entry.
    @raise Invalid_argument on an out-of-range index. *)

val is_identity : rotation -> bool
(** Whether the rotation is the exact identity quadruple (s = 0,
    e^{iφ} = 1) — the nothing-to-eliminate case. {!eliminate} and
    {!eliminate_left} skip both the kernel pass and the zero pin for
    such rotations, and so does {!eliminate_transposed}. *)
