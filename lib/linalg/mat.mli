(** Dense complex matrices.

    The high-level representation of a linear interferometer is an N×N
    unitary (paper §II-B); every Bosehedral pass manipulates values of
    this type. Storage is a single contiguous row-major off-heap
    [Bigarray] plane per component (real/imaginary) behind this
    abstract type — no other module may assume the layout. Off-heap
    planes give the C kernels stable data pointers (no GC interaction)
    and let the binary artifact codec blit planes straight out of
    mmapped cache objects. Functions are documented as pure unless
    their name says otherwise.

    Beyond the constructors and elementwise operations, the module is a
    kernel layer: in-place Givens rotations ([rot_*]), BLAS-style
    in-place products ([gemm], [gemm_adjoint], …), [axpy]/[scale]
    updates, in-place row/column permutations, no-copy submatrix
    {!View}s, and {!type:workspace}s of reusable scratch matrices that
    the compiler passes thread through the pipeline. *)

type t

val create : int -> int -> t
(** [create rows cols] zero matrix.
    @raise Out_of_memory when the planes' byte size overflows [int]. *)

val identity : int -> t

val dims : t -> int * int
val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit

val get_re : t -> int -> int -> float
val get_im : t -> int -> int -> float
(** The real and imaginary parts of one entry, read without building a
    [Cx.t] (inlined: the floats stay unboxed in the caller).
    @raise Invalid_argument on an out-of-range index. *)

val init : int -> int -> (int -> int -> Cx.t) -> t
val of_arrays : Cx.t array array -> t
(** Copies its input. @raise Invalid_argument on empty input, a zero
    number of columns, or ragged rows. *)

val to_arrays : t -> Cx.t array array
(** Fresh copy of the contents. *)

val of_real : float array array -> t

val copy : t -> t

val blit : t -> t -> unit
(** [blit src dst] overwrites [dst] with the contents of [src].
    @raise Invalid_argument on dimension mismatch. *)

val fill_zero : t -> unit
(** In-place: every entry becomes 0. *)

val set_identity : t -> unit
(** In-place: zero, then ones on the main diagonal. *)

val transpose : t -> t

val transpose_into : src:t -> dst:t -> unit
(** [dst ← srcᵀ]. @raise Invalid_argument unless [dst] is
    [cols src × rows src] and distinct from [src]. *)

val transpose_inplace : t -> unit
(** In-place [m ← mᵀ]. @raise Invalid_argument on a non-square [m]. *)

val conj : t -> t
val adjoint : t -> t
(** Conjugate transpose. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t

val scale_inplace : Cx.t -> t -> unit
(** [m ← s·m], allocation-free. *)

val axpy : Cx.t -> t -> t -> unit
(** [axpy a x y] is [y ← y + a·x], allocation-free.
    @raise Invalid_argument on dimension mismatch. *)

val scale_row : t -> int -> Cx.t -> unit
(** In-place scale of one row. *)

val scale_col : t -> int -> Cx.t -> unit
(** In-place scale of one column. *)

val row_axpy : t -> src:int -> dst:int -> ?from:int -> Cx.t -> unit
(** [row_axpy m ~src ~dst ~from a]: row [dst] ← row [dst] + a·row [src]
    on columns [from..cols-1] ([from] defaults to 0) — the LU
    elimination kernel. Allocation-free. *)

val mul : t -> t -> t
(** Matrix product. @raise Invalid_argument on dimension mismatch. *)

val gemm : ?acc:bool -> dst:t -> t -> t -> unit
(** [gemm ~dst a b] is [dst ← a·b] ([dst ← dst + a·b] with [~acc:true]),
    cache-blocked over the contraction index, writing into the caller's
    buffer — the allocation-free form of {!mul}. [dst] must not alias
    [a] or [b]. @raise Invalid_argument on shape mismatch or aliasing. *)

val gemm_adjoint : ?acc:bool -> dst:t -> t -> t -> unit
(** [dst ← a·b†] without materializing [b†]: entry (i,j) is a dot
    product of two contiguous rows. Same contract as {!gemm}. *)

val gemm_adjoint_left : ?acc:bool -> dst:t -> t -> t -> unit
(** [dst ← a†·b] without materializing [a†]. Same contract as {!gemm}. *)

val gemm_transpose : ?acc:bool -> dst:t -> t -> t -> unit
(** [dst ← a·bᵀ] (plain transpose, no conjugation). Same contract as
    {!gemm}. *)

val mul_vec : t -> Cx.t array -> Cx.t array

val trace : t -> Cx.t

val trace_mul : t -> t -> Cx.t
(** [trace_mul a b] = tr(a·b) in O(N²) without materializing the
    product. @raise Invalid_argument unless [a·b] is square. *)

val frobenius_norm : t -> float
val max_abs_diff : t -> t -> float
(** Entrywise L∞ distance. *)

val equal : ?tol:float -> t -> t -> bool

val is_unitary : ?tol:float -> t -> bool
(** Whether [m† m = I] entrywise within [tol] (default 1e-8). *)

val row_norm2 : t -> int -> float
(** Sum of squared moduli of one row. *)

val col_norm2 : t -> int -> float

val swap_rows : t -> int -> int -> unit
(** In-place. *)

val swap_cols : t -> int -> int -> unit
(** In-place. *)

val permute_rows_inplace : int array -> t -> unit
(** [permute_rows_inplace p m] moves row [i] to row [p.(i)] in place
    (cycle-following; O(cols) scratch, no matrix allocated) — the
    in-place form of [Perm.permute_rows].
    @raise Invalid_argument if [p] is not a permutation of the rows. *)

val permute_cols_inplace : int array -> t -> unit
(** [permute_cols_inplace p m] moves column [j] to column [p.(j)] in
    place — the in-place form of [Perm.permute_cols]. *)

val map : (Cx.t -> Cx.t) -> t -> t

val unitary_fidelity : t -> t -> float
(** [unitary_fidelity u_app u] = |tr(u_app · u†)| / N — the paper's
    approximation-fidelity metric (§VII-A). Both must be N×N.
    Computed elementwise in O(N²). *)

val qr : t -> t * t
(** [qr a] = (q, r) with [a = q·r], [q] unitary and [r] upper
    triangular, via Householder reflections over the flat planes (the
    engine of [Unitary.qr]). Each column's reflector dot products
    accumulate row by row in the column's own order, so the bits are
    those of the entry-at-a-time [Cx] formulation.
    @raise Invalid_argument on a non-square [a]. *)

val rot_cols_t_dagger : t -> m:int -> n:int -> theta:float -> phi:float -> unit
(** In-place [u ← u · T_{m,n}(θ,φ)†] — the elimination kernel, touching
    only columns [m] and [n]. Allocation-free; this is the hot loop of
    decomposition and reconstruction. *)

val rot_cols_t : t -> m:int -> n:int -> theta:float -> phi:float -> unit
(** In-place [u ← u · T_{m,n}(θ,φ)]; inverse of {!rot_cols_t_dagger}. *)

val rot_rows_t : t -> m:int -> n:int -> theta:float -> phi:float -> unit
(** In-place [u ← T_{m,n}(θ,φ) · u] — row mixing from the left, used by
    the two-sided (Clements) elimination. *)

val rot_rows_t_dagger : t -> m:int -> n:int -> theta:float -> phi:float -> unit
(** In-place [u ← T_{m,n}(θ,φ)† · u]; inverse of {!rot_rows_t}. *)

(** The [_cs] variants take the rotation in precomputed form — [c] =
    cos θ, [s] = sin θ and [(ere, eim)] = e^{iφ} — so callers that can
    derive these algebraically (e.g. {!Givens.eliminate}, which reads
    them off the entries being zeroed) skip the cos/sin/atan2 round
    trip entirely. The angle-based kernels above are thin wrappers. *)

val rot_cols_t_dagger_cs :
  ?nrows:int -> t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit
(** [?nrows] restricts the update to the first [nrows] rows, for
    callers that know both columns are zero below (Clements sweeps). *)

val rot_cols_t_cs :
  t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit

val rot_rows_t_cs :
  ?first:int -> t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit
(** [?first] restricts the update to columns [first ..], for callers
    that know both rows are zero to the left (Clements sweeps). *)

val rot_rows_t_dagger_cs :
  t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit

(** {2 Column rotations of a transposed matrix}

    The elimination and replay engines keep their scratch
    transposed: [wt] holds uᵀ, so column j of u is the contiguous row j
    of [wt], and a column rotation of u is one unit-stride rotation of a
    row pair of [wt]. Each entry of u gets the same element arithmetic,
    with the same arguments, as under {!rot_cols_t_dagger_cs} /
    {!rot_cols_t_cs} applied to u itself — the bits are identical, only
    the addresses differ. *)

val rot_cols_t_dagger_transposed :
  nrows:int -> t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit
(** [rot_cols_t_dagger_transposed ~nrows wt …] makes to uᵀ the update
    [rot_cols_t_dagger_cs ~nrows] makes to u: [u ← u · T†] on rows
    [0 .. nrows-1] of u, i.e. columns [0 .. nrows-1] of rows [m] and [n]
    of [wt]. @raise Invalid_argument on a bad index pair or [nrows]. *)

val rot_cols_t_transposed :
  t -> m:int -> n:int -> c:float -> s:float -> ere:float -> eim:float -> unit
(** [rot_cols_t_transposed wt …] makes to uᵀ the update {!rot_cols_t_cs}
    makes to u: [u ← u · T], rows [m] and [n] of [wt] in full. *)

(** {1 Views}

    A view is a submatrix described by row and column index sets over a
    base matrix — nothing is copied, so the hafnian/permanent kernels
    can address the A_{n̄} submatrices of GBS probability formulas
    without allocating per query. Index arrays may repeat entries (the
    GBS submatrices do). The view reads through to the live base
    matrix; it is only valid while the base is unchanged. *)

module View : sig
  type t

  val rows : t -> int
  val cols : t -> int

  val get : t -> int -> int -> Cx.t
  (** [get v i j] = base entry at ([rows.(i)], [cols.(j)]). *)
end

val view : t -> rows:int array -> cols:int array -> View.t
(** No-copy submatrix. The index arrays are captured, not copied — the
    caller must not mutate them while the view is in use.
    @raise Invalid_argument on out-of-range indices. *)

val view_full : t -> View.t
(** The whole matrix as a view. *)

val of_view : View.t -> t
(** Materialize a view into a fresh matrix. *)

val views_overlap : View.t -> View.t -> bool
(** Static aliasing check: whether the two views address intersecting
    storage — the same parent buffer, at least one common row index and
    at least one common column index. Two overlapping views must never
    be handed to an in-place kernel as source and destination; the lint
    pass [aliasing] (code BH0701) reports every overlapping pair at a
    kernel call site, and dev builds additionally assert kernel-input
    health at entry (assertions are compiled out by [-noassert] in the
    release profile). O(rows + cols) of the parent. *)

(** {1 Workspaces}

    A workspace is a pool of scratch matrices keyed by
    [(slot, rows, cols)], reused across calls so hot loops (the
    500-trial mapping polish, the dropout fidelity search) allocate
    O(1) matrices instead of O(trials). Scratch contents are
    unspecified on acquisition; the caller overwrites. The threading
    convention (who owns which slot, no scratch escapes the call that
    acquired it) is documented in docs/ARCHITECTURE.md. *)

(** Named workspace slots. The slot numbers are a repo-wide ownership
    convention (previously magic literals at each call site): every
    holder of a slot may assume no live scratch from another owner
    shares it. New subsystems should claim a fresh constant here
    rather than inventing a number locally. *)
module Slot : sig
  val elimination : int
  (** Slot 0 — the elimination engines' work matrix
      ([Eliminate.decompose], [Clements.decompose] copy their input
      here). *)

  val replay : int
  (** Slot 1 — [Plan.fidelity]'s replay target (the dropout search and
      mapping polish probe fidelities here while an elimination's work
      matrix is dead). *)
end

type workspace

val workspace : unit -> workspace

val scratch : ?slot:int -> workspace -> int -> int -> t
(** [scratch ws rows cols] returns the pooled matrix for this
    (slot, shape), creating it on first use. [slot] (default 0)
    separates concurrent uses of equal shapes. The returned matrix must
    not be retained past the acquiring call's own return. *)

val workspace_hits : workspace -> int
(** Scratch requests served from the pool. *)

val workspace_misses : workspace -> int
(** Scratch requests that had to allocate. *)

val allocations : unit -> int
(** Global count of matrices allocated since program start — the
    denominator of the compile-time allocation gauges
    (docs/METRICS.md). Monotone; sample a delta around a region to
    count its allocations. *)

val bytes_offheap : unit -> int
(** Cumulative bytes of off-heap plane storage allocated since program
    start (16 bytes per element: two float64 planes). The off-heap twin
    of the GC-words allocation gauges; feeds [mat.bytes_offheap]
    (docs/METRICS.md). Monotone — sample a delta around a region. *)

(** {1 Binary plane codec}

    The payload layout shared by the v2 binary artifact formats
    (docs/SERVING.md): both planes row-major as little-endian IEEE-754
    doubles, the full real plane followed by the full imaginary plane.
    [Plan]/[Unitary] wrap this in their magic/version headers and
    FNV-1a checksum trailers; the disk cache decodes it either from a
    string read or zero-copy from an mmapped object file. *)

type bigbytes = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A raw byte buffer — in practice an mmapped cache object file. *)

val plane_bytes : t -> int
(** Encoded payload size: [16 · rows · cols] bytes. *)

val encode_planes : Buffer.t -> t -> unit
(** Append the two planes to [buf] in the codec layout. *)

val decode_planes_string : rows:int -> cols:int -> string -> pos:int -> t
(** Decode a fresh matrix from the codec layout starting at [pos].
    @raise Invalid_argument when the range is out of bounds. *)

val decode_planes_bigbytes : rows:int -> cols:int -> bigbytes -> pos:int -> t
(** {!decode_planes_string} over a mapped buffer — one [memcpy] per
    plane on little-endian hosts (a portable per-element fallback runs
    on big-endian ones), no intermediate string.
    @raise Invalid_argument when the range is out of bounds. *)

val bigbytes_sub_string : bigbytes -> pos:int -> len:int -> string
(** Copy a slice of a mapped buffer out as a string — for the small
    header/trailer regions around the plane payloads.
    @raise Invalid_argument when the range is out of bounds. *)

val fnv1a64_bigbytes : bigbytes -> pos:int -> len:int -> int64
(** FNV-1a 64 over a buffer slice, agreeing with [Bose_util.Fnv] — the
    checksum validation primitive of the mmap read path.
    @raise Invalid_argument when the range is out of bounds. *)

val pp : Format.formatter -> t -> unit
