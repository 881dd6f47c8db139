module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Givens = Bose_linalg.Givens
module Gate = Bose_circuit.Gate
module Circuit = Bose_circuit.Circuit

type t = {
  modes : int;
  left : Givens.rotation list;
  right : Givens.rotation list;
  lambda : Cx.t array;
}

(* One ranged kernel call per elimination. *)
let sweeps work n =
  let left = ref [] and right = ref [] in
  for k = 1 to n - 1 do
    (* Odd diagonals are cleared corner-first (j ascending) so earlier
       zeros in the two touched columns are already in place; even
       diagonals are cleared top-first (j descending) for the same
       reason on the two touched rows. *)
    for idx = 0 to k - 1 do
      let j = if k mod 2 = 1 then idx else k - 1 - idx in
      let row = n - 1 - j and col = k - 1 - j in
      (* Entry (r, c) of the lower triangle is cleared in sweep
         n − r + c, so when (row, col) is up, everything below it in
         columns col/col+1 and left of it in rows row/row−1 belongs to
         an earlier sweep (or an earlier step of this one) and is
         already zero — the rotations need not touch those entries. *)
      if k mod 2 = 1 then
        (* Zero work(row, col) against column col+1 from the right. *)
        right :=
          Givens.eliminate ~nrows:(row + 1) work ~row ~m:col ~n:(col + 1) :: !right
      else
        (* Zero work(row, col) against row row-1 from the left. *)
        left :=
          Givens.eliminate_left ~first:col work ~col ~m:row ~n:(row - 1) :: !left
    done
  done;
  (!left, !right)

(* Anti-diagonal k (1-based, from the bottom-left corner) holds the
   sub-diagonal entries (n-1-j, k-1-j) for j = 0 .. k-1. Odd k is
   cleared with column rotations from the right, even k with row
   rotations from the left — the zero pattern is preserved exactly as
   in Clements et al. *)
let decompose ?ws u =
  let n = Mat.rows u in
  if Mat.cols u <> n then invalid_arg "Clements.decompose: square matrices only";
  let work =
    match ws with
    | None -> Mat.copy u
    | Some ws ->
      let w = Mat.scratch ~slot:Mat.Slot.elimination ws n n in
      Mat.blit u w;
      w
  in
  let left, right = sweeps work n in
  let lambda =
    Array.init n (fun i ->
        let d = Mat.get work i i in
        let modulus = Cx.abs d in
        if modulus < 0.5 then invalid_arg "Clements.decompose: input does not appear unitary";
        Cx.scale (1. /. modulus) d)
  in
  { modes = n; left = List.rev left; right = List.rev right; lambda }

let reconstruct t =
  let u = Mat.create t.modes t.modes in
  Array.iteri (fun i lam -> Mat.set u i i lam) t.lambda;
  (* D · R_p ⋯ R_1: right-multiply by the rights in reverse order. *)
  List.iter (fun r -> Givens.apply_t_right u r) (List.rev t.right);
  (* L_1† ⋯ L_q† · (…): apply L_q† first so that L_1† ends up
     outermost. *)
  List.iter (fun r -> Givens.apply_t_dagger_left u r) (List.rev t.left);
  u

let rotation_count t = List.length t.left + List.length t.right

let angles t =
  Array.of_list
    (List.map (fun r -> Float.abs (Givens.theta r)) (t.left @ t.right))

let to_circuit ?(prelude = []) t =
  let c = ref (Circuit.add_all (Circuit.create ~modes:t.modes) prelude) in
  (* U = A·D·B with B = R_p⋯R_1 applied first: light passes the right
     group in list order R_1 … R_p. *)
  List.iter
    (fun r ->
       c :=
         Circuit.add_all !c
           (Gate.mzi ~m:r.Givens.m ~n:r.Givens.n ~theta:(Givens.theta r) ~phi:(Givens.phi r)))
    t.right;
  Array.iteri (fun i lam -> c := Circuit.add !c (Gate.Phase (i, Cx.arg lam))) t.lambda;
  (* Then A = L_1†⋯L_q†: passing through L_q† first. Each T† is the
     reversed MZI: BS(−θ, 0) then R(−φ). *)
  List.iter
    (fun r ->
       c :=
         Circuit.add_all !c
           [ Gate.Beamsplitter (r.Givens.m, r.Givens.n, -.(Givens.theta r), 0.);
             Gate.Phase (r.Givens.m, -.(Givens.phi r)) ])
    (List.rev t.left);
  !c
