(** The Clements rectangular decomposition (Clements et al. 2016) — the
    vanilla interferometer decomposition of the paper's reference [10]
    and the implementation inside Strawberry Fields.

    Sub-diagonal entries are eliminated anti-diagonal by anti-diagonal,
    alternating sides: odd anti-diagonals with column rotations applied
    from the right, even ones with row rotations from the left, giving
    [L_q ⋯ L_1 · U · R_1† ⋯ R_p† = D] and hence
    [U = L_1† ⋯ L_q† · D · R_p ⋯ R_1]. All rotations act on adjacent
    index pairs, so the mesh maps onto a line of qumodes, like the
    chain baseline. *)

type t = {
  modes : int;
  left : Bose_linalg.Givens.rotation list;  (** L_1 … L_q in application order. *)
  right : Bose_linalg.Givens.rotation list;  (** R_1 … R_p in application order. *)
  lambda : Bose_linalg.Cx.t array;  (** Diagonal of D, unit modulus. *)
}

val decompose : ?ws:Bose_linalg.Mat.workspace -> Bose_linalg.Mat.t -> t
(** @raise Invalid_argument on non-square or non-unitary input. Passing
    [?ws] reuses the workspace's slot-0 scratch as the elimination work
    matrix instead of allocating a fresh copy of the input.

    One engine at every N, on the calling domain: one ranged kernel
    call per elimination, each rotation restricted ([?nrows]/[?first])
    to the rows/columns not yet known to be zero. Column rotations run
    strided, so this engine is slower than {!Eliminate.decompose} at
    equal N. *)

val reconstruct : t -> Bose_linalg.Mat.t
(** Replays [L_1†⋯L_q†·D·R_p⋯R_1]; equals the input to machine
    precision. *)

val rotation_count : t -> int
(** N(N−1)/2. *)

val angles : t -> float array
(** |θ| of every rotation (left then right groups). *)

val to_circuit : ?prelude:Bose_circuit.Gate.t list -> t -> Bose_circuit.Circuit.t
(** Physical gate sequence implementing the mesh: right-group MZIs,
    the D phases, then inverted left-group blocks. *)
