(** Decomposition plans: the ordered MZI rotations and final phases that
    realize an interferometer unitary (paper Eq. 1),
    [U = Λ · T_K ⋯ T_2 · T_1].

    A plan remembers each rotation together with the matrix row whose
    entry it eliminated; dropping a beamsplitter means setting that
    rotation's θ to zero (its phase shifter survives) and the
    approximated unitary is rebuilt exactly by replaying the product —
    the paper's compile-time approximation-effect reasoning (§VI). *)

type element = {
  rotation : Bose_linalg.Givens.rotation;
  row : int;  (** Matrix row this elimination zeroed (0-indexed). *)
}

type t = {
  modes : int;
  elements : element array;  (** In elimination order. *)
  lambda : Bose_linalg.Cx.t array;  (** Diagonal of Λ, unit-modulus. *)
}

val rotation_count : t -> int
(** N(N-1)/2 for a full decomposition. *)

val angles : t -> float array
(** |θ| of every rotation, in elimination order. *)

val small_angle_count : t -> threshold:float -> int
(** How many rotations satisfy |θ| < threshold — the quantity both
    optimizations try to maximize (paper §V-D uses θ < 0.1). *)

val reconstruct : ?pool:Bose_par.Pool.t -> ?kept:bool array -> t -> Bose_linalg.Mat.t
(** Replay [Λ · T_K ⋯ T_1]. With [kept], rotations flagged [false] are
    replayed with θ = 0 (beamsplitter dropped, phase kept), giving the
    approximated unitary U_app of §VI.

    Below [Mat.blocking_threshold] modes the replay rotates a
    transposed target at unit stride and transposes it back once at
    the end. At modes ≥ [Mat.blocking_threshold] it packs the whole
    rotation string into one fused sweep and row-chunks it across
    [?pool]. Engine choice depends only on the plan size, so the
    replayed bits are identical at every pool size. *)

val reconstruct_into :
  ?pool:Bose_par.Pool.t -> ?kept:bool array -> dst:Bose_linalg.Mat.t -> t -> unit
(** {!reconstruct} into a caller-owned [dst] (modes×modes, overwritten)
    — the allocation-free replay used by workspace-backed callers.
    @raise Invalid_argument if [kept] does not have one flag per rotation. *)

val fidelity :
  ?ws:Bose_linalg.Mat.workspace ->
  ?pool:Bose_par.Pool.t ->
  ?kept:bool array -> t -> Bose_linalg.Mat.t -> float
(** [fidelity ?kept plan u] = |tr(U_app·U†)|/N against the original.
    With [?ws] the replayed unitary lives in the workspace's slot-1
    scratch, so repeated calls (the dropout threshold search) allocate
    no matrices. [?pool] chunks the fused large-N replay. *)

type mzi_style =
  | Tunable  (** 'MZI 1': R(φ) + tunable BS(θ, 0) — two gates. *)
  | Fixed_fifty_fifty
  (** 'MZI 2': three phase shifters + two fixed 50:50 beamsplitters, for
      hardware without tunable beamsplitters (paper Fig. 2). *)

val to_circuit :
  ?style:mzi_style ->
  ?kept:bool array ->
  ?prelude:Bose_circuit.Gate.t list ->
  t ->
  Bose_circuit.Circuit.t
(** Physical gate sequence: optional state-preparation [prelude], then
    one MZI block per kept rotation in elimination order (dropped
    rotations contribute only their phase shifter), then the Λ phases.
    [style] picks the MZI realization (default {!Tunable}). *)

val save : out_channel -> t -> unit
(** Persist a plan as a line-oriented text format ("compile once, run
    the shot loop elsewhere"). Hex floats, bit-exact round-trip. *)

val to_string : t -> string
(** The exact bytes {!save} writes — the in-memory form the lint
    round-trip check (BH0405) compares against. *)

val load_result : in_channel -> (t, string * int) result
(** Inverse of {!save}: {!of_string} over the rest of the channel.
    [Error (message, line)] carries the 1-based line the parse failed
    on, so callers ([bosec check], the lint file loaders) can surface
    malformed input as a structured diagnostic instead of an
    exception. The text layout is strict: one space before each field,
    nothing else on a line (see {!Bose_util.Artifact_text}). A header
    whose sizes cannot fit in the rest of the input is an [Error] at
    line 1, never an allocation. *)

val of_string : string -> (t, string * int) result
(** {!load_result} over an in-memory string, dispatching on the leading
    bytes: strings opening with the binary magic ["BHBP"] parse as the
    v2 binary format (docs/SERVING.md), anything else as the text
    format. Binary parse errors report line [0]. *)

val to_binary_string : t -> string
(** The v2 binary artifact encoding: magic ["BHBP"], format version,
    dimensions, fixed 48-byte rotation records carrying the kernel
    quadruple, the Λ entries, and a trailing FNV-1a 64 checksum.
    Bit-exact round-trip through {!of_string} with no hex-float
    parsing on load — the disk cache's preferred encoding. *)

val of_bigbytes :
  Bose_linalg.Mat.bigbytes -> pos:int -> len:int -> (t, string * int) result
(** Decode a v2 binary plan from [len] bytes at [pos] of a mapped
    buffer. Same error convention as {!of_string}.
    @raise Invalid_argument when the range is out of bounds of the
    buffer itself. *)

val load : in_channel -> t
(** {!load_result} shim. @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
