(* Unit and property tests for the bose_linalg library. *)

module Rng = Bose_util.Rng
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
open Bose_linalg

let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------- Cx *)

let test_cx_arith () =
  let a = Cx.make 1. 2. and b = Cx.make 3. (-1.) in
  Alcotest.(check bool) "add" true Cx.(is_close (a +: b) (make 4. 1.));
  Alcotest.(check bool) "mul" true Cx.(is_close (a *: b) (make 5. 5.));
  check_close "abs2" 1e-12 5. (Cx.abs2 a);
  Alcotest.(check bool) "exp_i" true Cx.(is_close (exp_i Float.pi) (make (-1.) 0.) ~tol:1e-12)

(* ------------------------------------------------------------------ Mat *)

let test_mat_identity_mul () =
  let rng = Rng.create 1 in
  let a = Unitary.haar_random rng 5 in
  Alcotest.(check bool) "I·a = a" true (Mat.equal (Mat.mul (Mat.identity 5) a) a);
  Alcotest.(check bool) "a·I = a" true (Mat.equal (Mat.mul a (Mat.identity 5)) a)

let test_mat_adjoint_involution () =
  let rng = Rng.create 2 in
  let a = Unitary.haar_random rng 4 in
  Alcotest.(check bool) "(a†)† = a" true (Mat.equal (Mat.adjoint (Mat.adjoint a)) a)

let test_mat_mul_associative () =
  let rng = Rng.create 3 in
  let a = Unitary.haar_random rng 4
  and b = Unitary.haar_random rng 4
  and c = Unitary.haar_random rng 4 in
  Alcotest.(check bool) "(ab)c = a(bc)" true
    (Mat.equal ~tol:1e-12 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))

let test_mat_trace_frobenius () =
  let m = Mat.of_arrays [| [| Cx.re 1.; Cx.i |]; [| Cx.zero; Cx.re 3. |] |] in
  Alcotest.(check bool) "trace" true (Cx.is_close (Mat.trace m) (Cx.re 4.));
  check_close "frobenius" 1e-12 (sqrt 11.) (Mat.frobenius_norm m)

let test_mat_row_col_norms () =
  let rng = Rng.create 4 in
  let u = Unitary.haar_random rng 6 in
  for i = 0 to 5 do
    check_close "unit row" 1e-10 1. (Mat.row_norm2 u i);
    check_close "unit col" 1e-10 1. (Mat.col_norm2 u i)
  done

let test_mat_swap () =
  let m = Mat.of_arrays [| [| Cx.re 1.; Cx.re 2. |]; [| Cx.re 3.; Cx.re 4. |] |] in
  Mat.swap_rows m 0 1;
  Alcotest.(check bool) "rows swapped" true (Cx.is_close (Mat.get m 0 0) (Cx.re 3.));
  Mat.swap_cols m 0 1;
  Alcotest.(check bool) "cols swapped" true (Cx.is_close (Mat.get m 0 0) (Cx.re 4.))

let test_mat_fidelity_metric () =
  let rng = Rng.create 5 in
  let u = Unitary.haar_random rng 8 in
  check_close "self fidelity" 1e-10 1. (Mat.unitary_fidelity u u);
  (* Global phase leaves the modulus-based fidelity at 1. *)
  let phased = Mat.scale (Cx.exp_i 0.7) u in
  check_close "phase invariant" 1e-10 1. (Mat.unitary_fidelity phased u);
  (* Against an independent Haar unitary the overlap is far below 1. *)
  let v = Unitary.haar_random rng 8 in
  Alcotest.(check bool) "random pair below 0.9" true (Mat.unitary_fidelity u v < 0.9)

let test_rot_cols_roundtrip () =
  let rng = Rng.create 6 in
  let u = Unitary.haar_random rng 7 in
  let w = Mat.copy u in
  Mat.rot_cols_t_dagger w ~m:2 ~n:5 ~theta:0.43 ~phi:1.2;
  Alcotest.(check bool) "changed" true (not (Mat.equal w u));
  Alcotest.(check bool) "still unitary" true (Mat.is_unitary w);
  Mat.rot_cols_t w ~m:2 ~n:5 ~theta:0.43 ~phi:1.2;
  Alcotest.(check bool) "restored" true (Mat.equal ~tol:1e-12 w u)

let test_rot_matches_dense () =
  (* The in-place kernel must agree with dense multiplication by T†. *)
  let rng = Rng.create 7 in
  let u = Unitary.haar_random rng 5 in
  let r = Givens.of_angles ~m:1 ~n:3 ~theta:0.7 ~phi:(-0.4) in
  let kernel = Mat.copy u in
  Givens.apply_t_dagger_right kernel r;
  let dense = Mat.mul u (Mat.adjoint (Givens.matrix 5 r)) in
  Alcotest.(check bool) "kernel = dense" true (Mat.equal ~tol:1e-12 kernel dense)

(* --------------------------------------------------------------- Givens *)

let test_givens_eliminates () =
  let rng = Rng.create 8 in
  let u = Unitary.haar_random rng 6 in
  let w = Mat.copy u in
  let before = Cx.abs2 (Mat.get w 5 2) +. Cx.abs2 (Mat.get w 5 4) in
  let rot = Givens.eliminate w ~row:5 ~m:2 ~n:4 in
  check_close "entry zeroed" 1e-12 0. (Cx.abs (Mat.get w 5 2));
  check_close "amplitude accumulated" 1e-10 before (Cx.abs2 (Mat.get w 5 4));
  let theta = Givens.theta rot in
  Alcotest.(check bool) "theta in range" true (theta >= 0. && theta <= Float.pi /. 2.)

let test_givens_small_angle_for_small_entry () =
  (* Eliminating a small entry against a large one gives a small theta. *)
  let m =
    Mat.of_arrays
      [| [| Cx.re 0.0995; Cx.re 0.995; Cx.zero |];
         [| Cx.re 0.995; Cx.re (-0.0995); Cx.zero |];
         [| Cx.zero; Cx.zero; Cx.one |] |]
  in
  let theta = Givens.angle_for m ~row:0 ~m:0 ~n:1 in
  check_close "theta = atan(0.1)" 1e-6 (atan 0.1) theta

let test_givens_zero_entry () =
  let m = Mat.identity 3 in
  let rot = Givens.eliminate m ~row:0 ~m:1 ~n:2 in
  check_close "theta 0 when already zero" 1e-12 0. (Givens.theta rot)

(* ----------------------------------------------------------------- Perm *)

let test_perm_compose_inverse () =
  let rng = Rng.create 9 in
  let p = Perm.random rng 10 and q = Perm.random rng 10 in
  Alcotest.(check bool) "p∘p⁻¹ = id" true (Perm.is_identity (Perm.compose p (Perm.inverse p)));
  let pq = Perm.compose p q in
  for i = 0 to 9 do
    Alcotest.(check int) "compose applies q first" (Perm.apply p (Perm.apply q i))
      (Perm.apply pq i)
  done

let test_perm_matrix_consistency () =
  let rng = Rng.create 10 in
  let p = Perm.random rng 6 in
  let u = Unitary.haar_random rng 6 in
  (* permute_rows p u = P·u with P = matrix p. *)
  Alcotest.(check bool) "row perm = P·u" true
    (Mat.equal (Perm.permute_rows p u) (Mat.mul (Perm.matrix p) u));
  (* permute_cols p u = u·Pᵀ. *)
  Alcotest.(check bool) "col perm = u·Pᵀ" true
    (Mat.equal (Perm.permute_cols p u) (Mat.mul u (Mat.transpose (Perm.matrix p))))

let test_perm_permute_list () =
  let p = Perm.of_array [| 2; 0; 1 |] in
  Alcotest.(check (list string)) "list relabeled" [ "b"; "c"; "a" ]
    (Perm.permute_list p [ "a"; "b"; "c" ])

let test_perm_invalid () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Perm.of_array: not a permutation")
    (fun () -> ignore (Perm.of_array [| 0; 0; 2 |]))

(* -------------------------------------------------------------- Unitary *)

let test_qr_reconstruction () =
  let rng = Rng.create 11 in
  let a =
    Mat.init 6 6 (fun _ _ ->
        let re, im = Rng.gaussian_pair rng in
        Cx.make re im)
  in
  let q, r = Unitary.qr a in
  Alcotest.(check bool) "q unitary" true (Mat.is_unitary q);
  Alcotest.(check bool) "qr = a" true (Mat.equal ~tol:1e-10 (Mat.mul q r) a);
  (* r upper triangular *)
  let ok = ref true in
  for i = 0 to 5 do
    for j = 0 to i - 1 do
      if Cx.abs (Mat.get r i j) > 1e-10 then ok := false
    done
  done;
  Alcotest.(check bool) "r triangular" true !ok

let test_haar_unitary () =
  let rng = Rng.create 12 in
  List.iter
    (fun n -> Alcotest.(check bool) "unitary" true (Mat.is_unitary (Unitary.haar_random rng n)))
    [ 1; 2; 5; 16 ]

let test_orthogonal_real () =
  let rng = Rng.create 13 in
  let o = Unitary.random_orthogonal rng 7 in
  Alcotest.(check bool) "unitary" true (Mat.is_unitary o);
  let all_real = ref true in
  for i = 0 to 6 do
    for j = 0 to 6 do
      if Float.abs (Mat.get o i j).Complex.im > 1e-12 then all_real := false
    done
  done;
  Alcotest.(check bool) "entries real" true !all_real

(* ---------------------------------------------------------------- Eigen *)

let test_eigen_known () =
  let lambda, v = Eigen.jacobi [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  check_close "λ₁" 1e-9 3. lambda.(0);
  check_close "λ₂" 1e-9 1. lambda.(1);
  (* Eigenvector for λ=3 is (1,1)/√2 up to sign. *)
  check_close "evec component" 1e-9 (Float.abs v.(0).(0)) (Float.abs v.(1).(0))

let test_eigen_reconstruct () =
  let rng = Rng.create 14 in
  let n = 8 in
  let a =
    Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng))
  in
  let sym = Array.init n (fun i -> Array.init n (fun j -> (a.(i).(j) +. a.(j).(i)) /. 2.)) in
  let lambda, v = Eigen.jacobi sym in
  let recon = Eigen.reconstruct lambda v in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      worst := Float.max !worst (Float.abs (recon.(i).(j) -. sym.(i).(j)))
    done
  done;
  Alcotest.(check bool) "reconstruction" true (!worst < 1e-8);
  (* eigenvalues decreasing *)
  for i = 0 to n - 2 do
    Alcotest.(check bool) "sorted" true (lambda.(i) >= lambda.(i + 1))
  done

let test_eigen_rejects_asymmetric () =
  Alcotest.check_raises "asymmetric" (Invalid_argument "Eigen.jacobi: not symmetric")
    (fun () -> ignore (Eigen.jacobi [| [| 1.; 2. |]; [| 0.; 1. |] |]))

(* --------------------------------------------------------------- Takagi *)

let test_takagi_roundtrip () =
  let rng = Rng.create 15 in
  let n = 7 in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  let sym = Array.init n (fun i -> Array.init n (fun j -> (a.(i).(j) +. a.(j).(i)) /. 2.)) in
  let lambda, u = Takagi.decompose sym in
  Alcotest.(check bool) "u unitary" true (Mat.is_unitary u);
  Array.iter (fun l -> Alcotest.(check bool) "λ ≥ 0" true (l >= 0.)) lambda;
  Alcotest.(check bool) "A = U·diag·Uᵀ" true
    (Mat.equal ~tol:1e-8 (Takagi.reconstruct lambda u) (Mat.of_real sym))

(* ------------------------------------------------------------- Linsolve *)

let test_linsolve_known_det () =
  let m = Mat.of_arrays [| [| Cx.re 2.; Cx.re 1. |]; [| Cx.re 1.; Cx.re 3. |] |] in
  Alcotest.(check bool) "det" true (Cx.is_close (Linsolve.det m) (Cx.re 5.))

let test_linsolve_unitary_det_modulus () =
  let rng = Rng.create 16 in
  let u = Unitary.haar_random rng 6 in
  check_close "det modulus 1" 1e-9 1. (Cx.abs (Linsolve.det u))

let test_linsolve_inverse () =
  let rng = Rng.create 17 in
  let a =
    Mat.init 6 6 (fun _ _ ->
        let re, im = Rng.gaussian_pair rng in
        Cx.make re im)
  in
  let inv = Linsolve.inverse a in
  Alcotest.(check bool) "a·a⁻¹ = I" true (Mat.equal ~tol:1e-9 (Mat.mul a inv) (Mat.identity 6))

let test_linsolve_solve () =
  let rng = Rng.create 18 in
  let a = Unitary.haar_random rng 5 in
  let b = Array.init 5 (fun i -> Cx.make (float_of_int i) 1.) in
  let x = Linsolve.solve a b in
  let residual = Mat.mul_vec a x in
  Array.iteri
    (fun i r -> Alcotest.(check bool) "residual" true (Cx.is_close ~tol:1e-9 r b.(i)))
    residual

let test_linsolve_singular () =
  let m = Mat.create 3 3 in
  Alcotest.check_raises "singular" (Invalid_argument "Linsolve: singular matrix") (fun () ->
      ignore (Linsolve.det m))

(* -------------------------------------------------------------- kernels *)

(* Naive get/set references for the flat kernels: everything below only
   touches the public element API, so a layout or blocking bug in the
   kernels cannot also be in the reference. *)

let random_mat rng rows cols =
  Mat.init rows cols (fun _ _ ->
      let re, im = Rng.gaussian_pair rng in
      Cx.make re im)

let naive_mul a b =
  let open Cx in
  Mat.init (Mat.rows a) (Mat.cols b) (fun i j ->
      let acc = ref Cx.zero in
      for k = 0 to Mat.cols a - 1 do
        acc := !acc +: (Mat.get a i k *: Mat.get b k j)
      done;
      !acc)

let test_of_arrays_zero_cols () =
  Alcotest.check_raises "zero columns" (Invalid_argument "Mat.of_arrays: zero columns")
    (fun () -> ignore (Mat.of_arrays [| [||]; [||] |]))

(* 2^32 x 2^32 wraps the element count to 0: the planes would be one
   element long while indexing assumed 2^64. *)
let test_create_overflowing_dims () =
  Alcotest.check_raises "element count wraps" Out_of_memory (fun () ->
      ignore (Mat.create (1 lsl 32) (1 lsl 32)));
  Alcotest.check_raises "byte count wraps" Out_of_memory (fun () ->
      ignore (Mat.create (1 lsl 30) (1 lsl 30)))

let test_gemm_matches_naive () =
  let rng = Rng.create 40 in
  (* Non-square shapes, including degenerate 1×1, straddle the blocking
     boundary (block size 64 needs > 64 columns to exercise wraparound). *)
  List.iter
    (fun (m, k, n) ->
       let a = random_mat rng m k and b = random_mat rng k n in
       let dst = Mat.create m n in
       Mat.gemm ~dst a b;
       Alcotest.(check bool)
         (Printf.sprintf "gemm %dx%d·%dx%d" m k k n)
         true
         (Mat.equal ~tol:1e-10 dst (naive_mul a b));
       (* acc:true adds on top. *)
       Mat.gemm ~acc:true ~dst a b;
       Alcotest.(check bool) "gemm acc" true
         (Mat.equal ~tol:1e-10 dst (Mat.scale (Cx.re 2.) (naive_mul a b))))
    [ (1, 1, 1); (3, 5, 4); (5, 3, 7); (8, 8, 8); (2, 70, 3) ]

let test_gemm_variants_match_naive () =
  let rng = Rng.create 41 in
  let a = random_mat rng 4 6 and b = random_mat rng 5 6 in
  let dst = Mat.create 4 5 in
  Mat.gemm_adjoint ~dst a b;
  Alcotest.(check bool) "gemm_adjoint = a·b†" true
    (Mat.equal ~tol:1e-10 dst (naive_mul a (Mat.adjoint b)));
  let c = random_mat rng 6 4 and d = random_mat rng 6 5 in
  let dst2 = Mat.create 4 5 in
  Mat.gemm_adjoint_left ~dst:dst2 c d;
  Alcotest.(check bool) "gemm_adjoint_left = c†·d" true
    (Mat.equal ~tol:1e-10 dst2 (naive_mul (Mat.adjoint c) d));
  let e = random_mat rng 4 6 and f = random_mat rng 5 6 in
  let dst3 = Mat.create 4 5 in
  Mat.gemm_transpose ~dst:dst3 e f;
  Alcotest.(check bool) "gemm_transpose = e·fᵀ" true
    (Mat.equal ~tol:1e-10 dst3 (naive_mul e (Mat.transpose f)))

let test_gemm_rejects_aliasing () =
  let m = Mat.identity 3 in
  Alcotest.check_raises "dst aliases a" (Invalid_argument "Mat.gemm: dst aliases an input")
    (fun () -> Mat.gemm ~dst:m m (Mat.identity 3))

let test_axpy_scale_match_reference () =
  let rng = Rng.create 42 in
  let x = random_mat rng 3 5 and y = random_mat rng 3 5 in
  let alpha = Cx.make 0.3 (-1.1) in
  let expected =
    Mat.init 3 5 (fun i j -> Cx.( +: ) (Mat.get y i j) (Cx.( *: ) alpha (Mat.get x i j)))
  in
  let y' = Mat.copy y in
  Mat.axpy alpha x y';
  Alcotest.(check bool) "axpy" true (Mat.equal ~tol:1e-12 y' expected);
  let s = Mat.copy x in
  Mat.scale_inplace alpha s;
  Alcotest.(check bool) "scale_inplace = scale" true
    (Mat.equal ~tol:1e-12 s (Mat.scale alpha x))

let test_rot_rows_matches_dense () =
  let rng = Rng.create 43 in
  let u = Unitary.haar_random rng 5 in
  let r = Givens.of_angles ~m:0 ~n:4 ~theta:1.1 ~phi:0.3 in
  let kernel = Mat.copy u in
  Givens.apply_t_left kernel r;
  Alcotest.(check bool) "T·u" true
    (Mat.equal ~tol:1e-12 kernel (Mat.mul (Givens.matrix 5 r) u));
  let kernel2 = Mat.copy u in
  Givens.apply_t_dagger_left kernel2 r;
  Alcotest.(check bool) "T†·u" true
    (Mat.equal ~tol:1e-12 kernel2 (Mat.mul (Mat.adjoint (Givens.matrix 5 r)) u))

(* The ranged kernels (?nrows on column rotations, ?first on row
   rotations) must match the full kernel on the covered range and
   leave everything outside it untouched. *)
let test_ranged_rotations () =
  let rng = Rng.create 47 in
  let u = random_mat rng 7 7 in
  let c = cos 0.9 and s = sin 0.9 in
  let ere = cos (-0.7) and eim = sin (-0.7) in
  let full = Mat.copy u in
  Mat.rot_cols_t_dagger_cs full ~m:1 ~n:4 ~c ~s ~ere ~eim;
  let ranged = Mat.copy u in
  Mat.rot_cols_t_dagger_cs ~nrows:3 ranged ~m:1 ~n:4 ~c ~s ~ere ~eim;
  for i = 0 to 6 do
    for j = 0 to 6 do
      let expected = if i < 3 then Mat.get full i j else Mat.get u i j in
      Alcotest.(check bool)
        (Printf.sprintf "cols nrows (%d,%d)" i j)
        true
        (Cx.is_close ~tol:1e-12 (Mat.get ranged i j) expected)
    done
  done;
  let full = Mat.copy u in
  Mat.rot_rows_t_cs full ~m:2 ~n:5 ~c ~s ~ere ~eim;
  let ranged = Mat.copy u in
  Mat.rot_rows_t_cs ~first:4 ranged ~m:2 ~n:5 ~c ~s ~ere ~eim;
  for i = 0 to 6 do
    for j = 0 to 6 do
      let expected = if j >= 4 then Mat.get full i j else Mat.get u i j in
      Alcotest.(check bool)
        (Printf.sprintf "rows first (%d,%d)" i j)
        true
        (Cx.is_close ~tol:1e-12 (Mat.get ranged i j) expected)
    done
  done;
  Alcotest.check_raises "bad nrows" (Invalid_argument "Mat.rot_cols_t_dagger: bad nrows")
    (fun () -> Mat.rot_cols_t_dagger_cs ~nrows:8 (Mat.copy u) ~m:0 ~n:1 ~c ~s ~ere ~eim);
  Alcotest.check_raises "bad first" (Invalid_argument "Mat.rot_rows_t: bad first")
    (fun () -> Mat.rot_rows_t_cs ~first:(-1) (Mat.copy u) ~m:0 ~n:1 ~c ~s ~ere ~eim)

(* Kernel-form rotations: of_angles and the theta/phi accessors are
   inverses, and an eliminate-derived rotation agrees with one rebuilt
   from its own angles. *)
let test_rotation_angle_accessors () =
  let theta0 = 0.41 and phi0 = -2.3 in
  let r = Givens.of_angles ~m:0 ~n:1 ~theta:theta0 ~phi:phi0 in
  check_close "theta roundtrip" 1e-12 theta0 (Givens.theta r);
  check_close "phi roundtrip" 1e-12 phi0 (Givens.phi r);
  let rng = Rng.create 48 in
  let w = Unitary.haar_random rng 6 in
  let rot = Givens.eliminate w ~row:3 ~m:1 ~n:2 in
  let rebuilt =
    Givens.of_angles ~m:1 ~n:2 ~theta:(Givens.theta rot) ~phi:(Givens.phi rot)
  in
  check_close "c" 1e-12 rot.Givens.c rebuilt.Givens.c;
  check_close "s" 1e-12 rot.Givens.s rebuilt.Givens.s;
  check_close "ere" 1e-12 rot.Givens.ere rebuilt.Givens.ere;
  check_close "eim" 1e-12 rot.Givens.eim rebuilt.Givens.eim

let test_permute_inplace_matches_pure () =
  let rng = Rng.create 44 in
  (* Non-square: rows and cols exercised with different sizes. *)
  let m = random_mat rng 6 4 in
  let pr = Perm.random rng 6 and pc = Perm.random rng 4 in
  let rows_inplace = Mat.copy m in
  Perm.permute_rows_inplace pr rows_inplace;
  Alcotest.(check bool) "rows" true
    (Mat.equal ~tol:0. rows_inplace (Perm.permute_rows pr m));
  let cols_inplace = Mat.copy m in
  Perm.permute_cols_inplace pc cols_inplace;
  Alcotest.(check bool) "cols" true
    (Mat.equal ~tol:0. cols_inplace (Perm.permute_cols pc m))

let test_views_match_submatrix () =
  let rng = Rng.create 45 in
  let m = random_mat rng 6 5 in
  let rows = [| 4; 0; 4 |] and cols = [| 1; 3 |] in
  let v = Mat.view m ~rows ~cols in
  Alcotest.(check int) "rows" 3 (Mat.View.rows v);
  Alcotest.(check int) "cols" 2 (Mat.View.cols v);
  let materialized = Mat.of_view v in
  let expected = Mat.init 3 2 (fun i j -> Mat.get m rows.(i) cols.(j)) in
  Alcotest.(check bool) "of_view = submatrix" true (Mat.equal ~tol:0. materialized expected);
  (* Views are live: writing through the base is visible. *)
  Mat.set m 4 1 (Cx.re 9.);
  Alcotest.(check bool) "view is zero-copy" true
    (Cx.is_close (Mat.View.get v 0 0) (Cx.re 9.));
  Alcotest.check_raises "bad index" (Invalid_argument "Mat.view: row index out of bounds")
    (fun () -> ignore (Mat.view m ~rows:[| 6 |] ~cols:[| 0 |]))

let test_workspace_reuses_scratch () =
  let ws = Mat.workspace () in
  let a = Mat.scratch ws 8 8 in
  let b = Mat.scratch ws 8 8 in
  Alcotest.(check bool) "same matrix back" true (a == b);
  let c = Mat.scratch ~slot:1 ws 8 8 in
  Alcotest.(check bool) "slots are distinct" true (not (a == c));
  let d = Mat.scratch ws 4 4 in
  Alcotest.(check bool) "shapes are distinct" true (not (a == d));
  Alcotest.(check int) "hits" 1 (Mat.workspace_hits ws);
  Alcotest.(check int) "misses" 3 (Mat.workspace_misses ws);
  (* A second same-shape round trip allocates nothing. *)
  let before = Mat.allocations () in
  ignore (Mat.scratch ws 8 8);
  ignore (Mat.scratch ~slot:1 ws 8 8);
  Alcotest.(check int) "no allocations on reuse" before (Mat.allocations ())

let test_trace_mul_matches () =
  let rng = Rng.create 46 in
  let a = random_mat rng 5 5 and b = random_mat rng 5 5 in
  Alcotest.(check bool) "trace_mul = trace(a·b)" true
    (Cx.is_close ~tol:1e-10 (Mat.trace_mul a b) (Mat.trace (Mat.mul a b)))

(* ------------------------------------------- native kernels vs reference *)

(* Pure-OCaml references for the four C rotation kernels, written
   against the public element API only (Mat.get/Mat.set), so a layout,
   stride or lock-discipline bug in mat_stubs.c cannot also be in the
   reference. The loop bodies mirror the C [rot_pre]/[rot_post] shapes;
   the comparison tolerance covers FMA contraction in the -mfma C build
   (a ulp-scale difference per element, never more). *)

let cx (re, im) = Cx.make re im
let parts z = (z.Complex.re, z.Complex.im)

(* pre: the phase lands on the m entry before the real rotation. *)
let pre_step (mre, mim) (nre, nim) c s ere eim =
  let wre = (mre *. ere) -. (mim *. eim) in
  let wim = (mre *. eim) +. (mim *. ere) in
  ( ((wre *. c) -. (nre *. s), (wim *. c) -. (nim *. s)),
    ((wre *. s) +. (nre *. c), (wim *. s) +. (nim *. c)) )

(* post: the real rotation runs first, the phase lands on rotated m. *)
let post_step (mre, mim) (nre, nim) c s ere eim =
  let wre = (mre *. c) +. (nre *. s) in
  let wim = (mim *. c) +. (nim *. s) in
  ( ((wre *. ere) -. (wim *. eim), (wre *. eim) +. (wim *. ere)),
    ((nre *. c) -. (mre *. s), (nim *. c) -. (mim *. s)) )

let ref_rot_cols_t_dagger ?nrows u ~m ~n ~c ~s ~ere ~eim =
  let count = match nrows with None -> Mat.rows u | Some r -> r in
  let eim = -.eim in
  for i = 0 to count - 1 do
    let a, b = pre_step (parts (Mat.get u i m)) (parts (Mat.get u i n)) c s ere eim in
    Mat.set u i m (cx a);
    Mat.set u i n (cx b)
  done

let ref_rot_cols_t u ~m ~n ~c ~s ~ere ~eim =
  for i = 0 to Mat.rows u - 1 do
    let a, b = post_step (parts (Mat.get u i m)) (parts (Mat.get u i n)) c s ere eim in
    Mat.set u i m (cx a);
    Mat.set u i n (cx b)
  done

let ref_rot_rows_t ?(first = 0) u ~m ~n ~c ~s ~ere ~eim =
  for j = first to Mat.cols u - 1 do
    let a, b = pre_step (parts (Mat.get u m j)) (parts (Mat.get u n j)) c s ere eim in
    Mat.set u m j (cx a);
    Mat.set u n j (cx b)
  done

let ref_rot_rows_t_dagger u ~m ~n ~c ~s ~ere ~eim =
  let eim = -.eim in
  for j = 0 to Mat.cols u - 1 do
    let a, b = post_step (parts (Mat.get u m j)) (parts (Mat.get u n j)) c s ere eim in
    Mat.set u m j (cx a);
    Mat.set u n j (cx b)
  done

let test_rot_kernels_match_reference () =
  let rng = Rng.create 60 in
  (* Ragged shapes from degenerate through odd primes up to past the
     blocking threshold, so both lock disciplines are exercised and
     compared against the same reference. *)
  let shapes =
    [ (1, 2); (2, 1); (2, 2); (3, 5); (5, 3); (7, 13); (31, 33); (64, 64);
      (Mat.blocking_threshold, 5); (5, Mat.blocking_threshold);
      (Mat.blocking_threshold + 22, Mat.blocking_threshold + 22) ]
  in
  let pick2 rng dim =
    let m = Rng.int rng dim and n = Rng.int rng dim in
    let n = if n = m then (m + 1) mod dim else n in
    (min m n, max m n)
  in
  let check_kernel label shape_lbl native reference u =
    let got = Mat.copy u and want = Mat.copy u in
    native got;
    reference want;
    Alcotest.(check bool)
      (Printf.sprintf "%s %s" label shape_lbl)
      true
      (Mat.equal ~tol:1e-12 got want)
  in
  List.iter
    (fun (nr, nc) ->
       let u = random_mat rng nr nc in
       let shape_lbl = Printf.sprintf "%dx%d" nr nc in
       let theta = Rng.float rng 6.3 and phi = Rng.float rng 6.3 -. 3.15 in
       let c = cos theta and s = sin theta in
       let ere = cos phi and eim = sin phi in
       if nc >= 2 then begin
         let m, n = pick2 rng nc in
         check_kernel "cols t_dagger" shape_lbl
           (fun w -> Mat.rot_cols_t_dagger_cs w ~m ~n ~c ~s ~ere ~eim)
           (fun w -> ref_rot_cols_t_dagger w ~m ~n ~c ~s ~ere ~eim)
           u;
         check_kernel "cols t" shape_lbl
           (fun w -> Mat.rot_cols_t_cs w ~m ~n ~c ~s ~ere ~eim)
           (fun w -> ref_rot_cols_t w ~m ~n ~c ~s ~ere ~eim)
           u;
         (* Ranged: an odd prefix, empty, and full-range spellings. *)
         List.iter
           (fun nrows ->
              check_kernel (Printf.sprintf "cols t_dagger nrows=%d" nrows) shape_lbl
                (fun w -> Mat.rot_cols_t_dagger_cs ~nrows w ~m ~n ~c ~s ~ere ~eim)
                (fun w -> ref_rot_cols_t_dagger ~nrows w ~m ~n ~c ~s ~ere ~eim)
                u)
           [ 0; (nr / 2) + 1; nr ]
       end;
       if nr >= 2 then begin
         let m, n = pick2 rng nr in
         check_kernel "rows t" shape_lbl
           (fun w -> Mat.rot_rows_t_cs w ~m ~n ~c ~s ~ere ~eim)
           (fun w -> ref_rot_rows_t w ~m ~n ~c ~s ~ere ~eim)
           u;
         check_kernel "rows t_dagger" shape_lbl
           (fun w -> Mat.rot_rows_t_dagger_cs w ~m ~n ~c ~s ~ere ~eim)
           (fun w -> ref_rot_rows_t_dagger w ~m ~n ~c ~s ~ere ~eim)
           u;
         List.iter
           (fun first ->
              check_kernel (Printf.sprintf "rows t first=%d" first) shape_lbl
                (fun w -> Mat.rot_rows_t_cs ~first w ~m ~n ~c ~s ~ere ~eim)
                (fun w -> ref_rot_rows_t ~first w ~m ~n ~c ~s ~ere ~eim)
                u)
           [ 0; (nc / 2) + 1; nc ]
       end)
    shapes

(* The size dispatch is observable: a kernel whose run length reaches
   Mat.blocking_threshold goes through the lock-releasing C entry
   points and bumps the lock_releases counter; a small one does not. *)
let test_blocking_dispatch_observable () =
  let rng = Rng.create 62 in
  let small = random_mat rng 8 8 in
  let locks0 = Mat.lock_releases () in
  Mat.rot_cols_t_cs small ~m:0 ~n:1 ~c:0.8 ~s:0.6 ~ere:1.0 ~eim:0.0;
  Alcotest.(check int) "small kernel stays on the fast path" locks0 (Mat.lock_releases ());
  let big = random_mat rng Mat.blocking_threshold 4 in
  Mat.rot_cols_t_cs big ~m:0 ~n:1 ~c:0.8 ~s:0.6 ~ere:1.0 ~eim:0.0;
  Alcotest.(check int) "threshold-size kernel releases the lock" (locks0 + 1)
    (Mat.lock_releases ());
  (* Row rotations dispatch on the column count. *)
  let wide = random_mat rng 4 Mat.blocking_threshold in
  Mat.rot_rows_t_cs wide ~m:0 ~n:1 ~c:0.8 ~s:0.6 ~ere:1.0 ~eim:0.0;
  Alcotest.(check int) "wide row rotation releases the lock" (locks0 + 2)
    (Mat.lock_releases ())

(* ------------------------------------------- fused sweep kernels *)

(* Pure get/set references for the fused sweep stubs: apply the packed
   rotations one at a time, honoring each rotation's bound (row limit
   for the column sweeps, first column for the row sweep). Rotation-
   outer here vs row-outer in C is immaterial — rows are independent —
   so any disagreement is a real stub bug, not an ordering artifact. *)

type sweep_rot = {
  sm : int; sn : int; sc : float; ss : float; sere : float; seim : float; sbound : int;
}

let random_sweep_rots rng ~count ~dim ~max_bound =
  Array.init count (fun _ ->
      let m = Rng.int rng dim in
      let n = Rng.int rng dim in
      let n = if n = m then (m + 1) mod dim else n in
      let theta = Rng.float rng 6.3 and phi = Rng.float rng 6.3 -. 3.15 in
      { sm = m; sn = n; sc = cos theta; ss = sin theta; sere = cos phi;
        seim = sin phi; sbound = Rng.int rng (max_bound + 1) })

let pack_rots rots =
  let seq = Mat.Rotseq.create ~capacity:4 () in
  Array.iter
    (fun r ->
       Mat.Rotseq.push seq ~m:r.sm ~n:r.sn ~c:r.sc ~s:r.ss ~ere:r.sere ~eim:r.seim
         ~bound:r.sbound)
    rots;
  seq

let ref_sweep_cols step u rots ~rot_lo ~rot_hi ~row_lo ~row_hi =
  for t = rot_lo to rot_hi - 1 do
    let r = rots.(t) in
    for i = row_lo to row_hi - 1 do
      if i < r.sbound then begin
        let a, b =
          step (parts (Mat.get u i r.sm)) (parts (Mat.get u i r.sn)) r.sc r.ss r.sere
            r.seim
        in
        Mat.set u i r.sm (cx a);
        Mat.set u i r.sn (cx b)
      end
    done
  done

let ref_sweep_rows_pre u rots ~rot_lo ~rot_hi ~col_lo ~col_hi =
  for t = rot_lo to rot_hi - 1 do
    let r = rots.(t) in
    for j = max col_lo r.sbound to col_hi - 1 do
      let a, b =
        pre_step (parts (Mat.get u r.sm j)) (parts (Mat.get u r.sn j)) r.sc r.ss r.sere
          r.seim
      in
      Mat.set u r.sm j (cx a);
      Mat.set u r.sn j (cx b)
    done
  done

let test_sweep_kernels_match_reference () =
  let rng = Rng.create 63 in
  (* Ragged sizes from degenerate through the blocking threshold up to
     the paper's N=500 tier, so both lock disciplines run against the
     same reference. *)
  let sizes = [ 2; 3; 7; 31; 64; 127; Mat.blocking_threshold; 129; 200; 500 ] in
  let check label native reference u =
    let got = Mat.copy u and want = Mat.copy u in
    native got;
    reference want;
    Alcotest.(check bool) label true (Mat.equal ~tol:1e-12 got want)
  in
  List.iter
    (fun dim ->
       let u = random_mat rng dim dim in
       let count = min dim 40 in
       (* Column sweeps: bound is an exclusive row limit. *)
       let rots = random_sweep_rots rng ~count ~dim ~max_bound:dim in
       let seq = pack_rots rots in
       let rot_mid = count / 2 and row_mid = dim / 2 in
       List.iter
         (fun (rot_lo, rot_hi, row_lo, row_hi) ->
            let lbl =
              Printf.sprintf "N=%d rots=[%d,%d) rows=[%d,%d)" dim rot_lo rot_hi row_lo
                row_hi
            in
            check ("sweep_cols_pre " ^ lbl)
              (fun w -> Mat.sweep_cols_pre w seq ~rot_lo ~rot_hi ~row_lo ~row_hi)
              (fun w -> ref_sweep_cols pre_step w rots ~rot_lo ~rot_hi ~row_lo ~row_hi)
              u;
            check ("sweep_cols_post " ^ lbl)
              (fun w -> Mat.sweep_cols_post w seq ~rot_lo ~rot_hi ~row_lo ~row_hi)
              (fun w -> ref_sweep_cols post_step w rots ~rot_lo ~rot_hi ~row_lo ~row_hi)
              u)
         [ (0, count, 0, dim); (0, count, row_mid, dim); (rot_mid, count, 0, row_mid);
           (0, 0, 0, dim); (0, count, 0, 0) ];
       (* Row sweep: bound is the first column touched. *)
       let rots = random_sweep_rots rng ~count ~dim ~max_bound:(dim - 1) in
       let seq = pack_rots rots in
       List.iter
         (fun (rot_lo, rot_hi, col_lo, col_hi) ->
            let lbl =
              Printf.sprintf "N=%d rots=[%d,%d) cols=[%d,%d)" dim rot_lo rot_hi col_lo
                col_hi
            in
            check ("sweep_rows_pre " ^ lbl)
              (fun w -> Mat.sweep_rows_pre w seq ~rot_lo ~rot_hi ~col_lo ~col_hi)
              (fun w -> ref_sweep_rows_pre w rots ~rot_lo ~rot_hi ~col_lo ~col_hi)
              u)
         [ (0, count, 0, dim); (0, count, row_mid, dim); (rot_mid, count, 0, row_mid) ])
    sizes

(* The determinism contract of the parallel engines: splitting a sweep's
   row (or column) range at any point yields bitwise-identical planes,
   because each row sees the same rotation subsequence in the same
   order. Pinned at tol 0. The column sweeps go four rows at a time, so
   their cuts fall at every offset mod 4, each row is also swept alone,
   and besides random pairs they get a chain of adjacent pairs — the
   elimination and replay shape, each rotation reading the entry the
   previous one wrote — whose staircase bounds end inside 4-row blocks. *)
let test_sweep_split_bit_identity () =
  let rng = Rng.create 64 in
  List.iter
    (fun dim ->
       let u = random_mat rng dim dim in
       let count = min dim 24 in
       let random = random_sweep_rots rng ~count ~dim ~max_bound:dim in
       let chain =
         Array.init (dim - 1) (fun k ->
             { (random.(k mod count)) with sm = k; sn = k + 1; sbound = dim - k })
       in
       List.iter
         (fun (shape, rots) ->
            let seq = pack_rots rots and rot_hi = Array.length rots in
            List.iter
              (fun (name, sweep) ->
                 let label what = Printf.sprintf "%s %s %s, N=%d" name shape what dim in
                 let whole = Mat.copy u in
                 sweep whole seq ~rot_lo:0 ~rot_hi ~row_lo:0 ~row_hi:dim;
                 List.iter
                   (fun cut ->
                      let split = Mat.copy u in
                      sweep split seq ~rot_lo:0 ~rot_hi ~row_lo:0 ~row_hi:cut;
                      sweep split seq ~rot_lo:0 ~rot_hi ~row_lo:cut ~row_hi:dim;
                      Alcotest.(check bool)
                        (label (Printf.sprintf "split at %d bit-identical" cut))
                        true (Mat.equal ~tol:0. split whole))
                   (List.filter (fun cut -> cut < dim)
                      [ 1; 2; 3; 4; 5; dim / 3; dim / 2; dim - 1 ]);
                 let rows = Mat.copy u in
                 for r = 0 to dim - 1 do
                   sweep rows seq ~rot_lo:0 ~rot_hi ~row_lo:r ~row_hi:(r + 1)
                 done;
                 Alcotest.(check bool) (label "1-row slices bit-identical") true
                   (Mat.equal ~tol:0. rows whole))
              [
                ("sweep_cols_pre", Mat.sweep_cols_pre);
                ("sweep_cols_post", Mat.sweep_cols_post);
              ])
         [ ("random", random); ("chain", chain) ];
       let rots = random_sweep_rots rng ~count ~dim ~max_bound:(dim - 1) in
       let seq = pack_rots rots in
       let whole = Mat.copy u in
       Mat.sweep_rows_pre whole seq ~rot_lo:0 ~rot_hi:count ~col_lo:0 ~col_hi:dim;
       List.iter
         (fun cut ->
            let split = Mat.copy u in
            Mat.sweep_rows_pre split seq ~rot_lo:0 ~rot_hi:count ~col_lo:0 ~col_hi:cut;
            Mat.sweep_rows_pre split seq ~rot_lo:0 ~rot_hi:count ~col_lo:cut ~col_hi:dim;
            Alcotest.(check bool)
              (Printf.sprintf "rows split at %d of %d bit-identical" cut dim)
              true (Mat.equal ~tol:0. split whole))
         [ 1; dim / 3; dim - 1 ])
    [ 3; 5; 64; Mat.blocking_threshold + 22 ]

(* A fused sweep must agree with the per-rotation _cs kernels applied in
   the same order. Tolerance, not bitwise: the fused and per-call C
   loops are separate compilation contexts, so FMA contraction may
   differ — which is exactly why the engines select by size only and
   never mix the two paths within one decomposition. *)
let test_sweep_agrees_with_percall_kernels () =
  let rng = Rng.create 65 in
  let dim = 40 in
  let count = 12 in
  let u = random_mat rng dim dim in
  let rots =
    Array.map
      (fun r -> { r with sbound = dim })
      (random_sweep_rots rng ~count ~dim ~max_bound:0)
  in
  let seq = pack_rots rots in
  let fused = Mat.copy u and percall = Mat.copy u in
  Mat.sweep_cols_post fused seq ~rot_lo:0 ~rot_hi:count ~row_lo:0 ~row_hi:dim;
  Array.iter
    (fun r ->
       Mat.rot_cols_t_cs percall ~m:r.sm ~n:r.sn ~c:r.sc ~s:r.ss ~ere:r.sere ~eim:r.seim)
    rots;
  Alcotest.(check bool) "sweep_cols_post = rot_cols_t_cs chain" true
    (Mat.equal ~tol:1e-12 fused percall);
  let rrots = random_sweep_rots rng ~count ~dim ~max_bound:(dim - 1) in
  let rseq = pack_rots rrots in
  let fused = Mat.copy u and percall = Mat.copy u in
  Mat.sweep_rows_pre fused rseq ~rot_lo:0 ~rot_hi:count ~col_lo:0 ~col_hi:dim;
  Array.iter
    (fun r ->
       Mat.rot_rows_t_cs ~first:r.sbound percall ~m:r.sm ~n:r.sn ~c:r.sc ~s:r.ss
         ~ere:r.sere ~eim:r.seim)
    rrots;
  Alcotest.(check bool) "sweep_rows_pre = rot_rows_t_cs chain" true
    (Mat.equal ~tol:1e-12 fused percall)

(* Binary plane codec: encode → decode must be bit-exact through both
   the string reader and the (possibly misaligned) bigbytes reader,
   and the Bigarray FNV-1a stub must agree with the pure-OCaml hash. *)
let test_plane_codec_roundtrip () =
  let rng = Rng.create 61 in
  List.iter
    (fun (r, cdim) ->
       let m = random_mat rng r cdim in
       let buf = Buffer.create 64 in
       Mat.encode_planes buf m;
       let s = Buffer.contents buf in
       Alcotest.(check int) "encoded length" (16 * r * cdim) (String.length s);
       let d = Mat.decode_planes_string ~rows:r ~cols:cdim s ~pos:0 in
       Alcotest.(check bool) "string decode bit-exact" true (Mat.equal ~tol:0. d m);
       (* Offset 3 forces a misaligned mmap-style read. *)
       let ba =
         Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s + 3)
       in
       String.iteri (fun i ch -> Bigarray.Array1.set ba (i + 3) ch) s;
       let d2 = Mat.decode_planes_bigbytes ~rows:r ~cols:cdim ba ~pos:3 in
       Alcotest.(check bool) "bigbytes decode bit-exact" true (Mat.equal ~tol:0. d2 m);
       Alcotest.(check string) "bigbytes_sub_string round-trips" s
         (Mat.bigbytes_sub_string ba ~pos:3 ~len:(String.length s));
       Alcotest.(check bool) "bigarray FNV agrees with pure-OCaml FNV" true
         (Mat.fnv1a64_bigbytes ba ~pos:3 ~len:(String.length s)
          = Bose_util.Fnv.string Bose_util.Fnv.seed s))
    [ (1, 1); (3, 5); (8, 8); (1, 17) ]

(* ------------------------------------------- small-N kernels vs oracles *)

(* The unit-stride small-N engines (Haar QR on the flat planes, the
   transposed elimination walk, the transposed replay) against the
   boxed and strided references in oracle.ml, bit for bit: equal hex
   float text is equal bits. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_matrix a b = Unitary.to_string a = Unitary.to_string b

let draws_match_oracle ~seed n =
  same_matrix (Unitary.haar_random (Rng.create seed) n) (Oracle.haar_random (Rng.create seed) n)
  && same_matrix
    (Unitary.random_orthogonal (Rng.create seed) n)
    (Oracle.random_orthogonal (Rng.create seed) n)

let prop_draws_match_oracle =
  QCheck.Test.make ~name:"haar/orthogonal draws match the boxed QR, N = 1..40" ~count:60
    QCheck.(pair (int_range 1 40) int)
    (fun (n, seed) -> draws_match_oracle ~seed n)

let test_draws_match_oracle_at_threshold () =
  List.iter
    (fun n ->
       Alcotest.(check bool) (Printf.sprintf "N=%d draws" n) true (draws_match_oracle ~seed:n n))
    [ Mat.blocking_threshold - 1; Mat.blocking_threshold; Mat.blocking_threshold + 1 ]

let small_pattern st n chain = if chain then Pattern.chain n else Oracle.random_pattern st n

let prop_walk_matches_oracle =
  QCheck.Test.make ~name:"small-N walk matches the strided decomposition, chain and tree"
    ~count:30
    QCheck.(triple (int_range 2 (Mat.blocking_threshold - 1)) bool int)
    (fun (n, chain, seed) ->
       let pattern = small_pattern (Random.State.make [| seed |]) n chain in
       let u = Unitary.haar_random (Rng.create seed) n in
       let want = Oracle.decompose pattern u in
       let sched = Eliminate.schedule pattern in
       let angles = Array.make (Eliminate.rotation_count sched) 0. in
       Eliminate.angles_into sched ~work:(Mat.create n n) u angles;
       let ws = Mat.workspace () in
       Plan.to_string (Eliminate.decompose pattern u) = Plan.to_string want
       && Plan.to_string (Eliminate.decompose ~ws pattern u) = Plan.to_string want
       && Array.for_all2 same_bits angles (Plan.angles want))

let prop_replay_matches_oracle =
  QCheck.Test.make ~name:"small-N masked replay matches the strided replay" ~count:30
    QCheck.(triple (int_range 2 (Mat.blocking_threshold - 1)) bool int)
    (fun (n, chain, seed) ->
       let st = Random.State.make [| seed |] in
       let pattern = small_pattern st n chain in
       let u = Unitary.haar_random (Rng.create seed) n in
       let plan = Eliminate.decompose pattern u in
       let kept = Array.init (Plan.rotation_count plan) (fun _ -> Random.State.int st 4 <> 0) in
       let ws = Mat.workspace () in
       same_matrix (Plan.reconstruct plan) (Oracle.reconstruct plan)
       && same_matrix (Plan.reconstruct ~kept plan) (Oracle.reconstruct ~kept plan)
       && same_bits (Plan.fidelity ~kept plan u) (Oracle.fidelity ~kept plan u)
       && same_bits (Plan.fidelity ~ws ~kept plan u) (Oracle.fidelity ~kept plan u))

(* ------------------------------------------------------------ properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"haar unitaries stay unitary under products" ~count:30
      (pair small_int small_int)
      (fun (s1, s2) ->
         let rng = Rng.create ((s1 * 1000) + s2) in
         let n = 2 + (abs s1 mod 6) in
         let u = Unitary.haar_random rng n and v = Unitary.haar_random rng n in
         Mat.is_unitary (Mat.mul u v));
    Test.make ~name:"elimination preserves unitarity and row norms" ~count:50 small_int
      (fun seed ->
         let rng = Rng.create seed in
         let n = 3 + (abs seed mod 5) in
         let u = Unitary.haar_random rng n in
         let w = Mat.copy u in
         ignore (Givens.eliminate w ~row:(n - 1) ~m:0 ~n:1);
         Mat.is_unitary w
         && Float.abs (Mat.row_norm2 w (n - 1) -. 1.) < 1e-9);
    Test.make ~name:"perm matrix is orthogonal" ~count:50 small_int (fun seed ->
        let rng = Rng.create seed in
        let n = 2 + (abs seed mod 8) in
        Mat.is_unitary (Perm.matrix (Perm.random rng n)));
    Test.make ~name:"takagi roundtrips random symmetric matrices" ~count:25 small_int
      (fun seed ->
         let rng = Rng.create seed in
         let n = 2 + (abs seed mod 5) in
         let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
         let sym =
           Array.init n (fun i -> Array.init n (fun j -> (a.(i).(j) +. a.(j).(i)) /. 2.))
         in
         let lambda, u = Takagi.decompose sym in
         Mat.equal ~tol:1e-7 (Takagi.reconstruct lambda u) (Mat.of_real sym));
    Test.make ~name:"inverse_det consistent with det" ~count:25 small_int (fun seed ->
        let rng = Rng.create (seed + 7) in
        let n = 2 + (abs seed mod 5) in
        let u = Unitary.haar_random rng n in
        let _, d1 = Linsolve.inverse_det u in
        let d2 = Linsolve.det u in
        Cx.is_close ~tol:1e-9 d1 d2);
    Test.make ~name:"gemm matches naive on random shapes" ~count:40 small_int (fun seed ->
        let rng = Rng.create (seed + 31) in
        let m = 1 + (abs seed mod 7)
        and k = 1 + (abs (seed * 13) mod 7)
        and n = 1 + (abs (seed * 29) mod 7) in
        let a = random_mat rng m k and b = random_mat rng k n in
        let dst = Mat.create m n in
        Mat.gemm ~dst a b;
        Mat.equal ~tol:1e-10 dst (naive_mul a b));
    Test.make ~name:"rot kernels match dense rotation products" ~count:40 small_int
      (fun seed ->
         let rng = Rng.create (seed + 53) in
         let dim = 2 + (abs seed mod 7) in
         let u = Unitary.haar_random rng dim in
         let m = abs (seed * 7) mod dim in
         let n = abs (seed * 11) mod dim in
         let n = if n = m then (m + 1) mod dim else n in
         let m, n = (min m n, max m n) in
         let r = Givens.of_angles ~m ~n ~theta:(Rng.float rng 3.0) ~phi:(Rng.float rng 6.0) in
         let t = Givens.matrix dim r in
         let right = Mat.copy u in
         Givens.apply_t_right right r;
         let dright = Mat.copy u in
         Givens.apply_t_dagger_right dright r;
         let left = Mat.copy u in
         Givens.apply_t_left left r;
         Mat.equal ~tol:1e-10 right (Mat.mul u t)
         && Mat.equal ~tol:1e-10 dright (Mat.mul u (Mat.adjoint t))
         && Mat.equal ~tol:1e-10 left (Mat.mul t u));
    Test.make ~name:"in-place permutes invert with the inverse perm" ~count:40 small_int
      (fun seed ->
         let rng = Rng.create (seed + 97) in
         let rows = 1 + (abs seed mod 8) and cols = 1 + (abs (seed * 17) mod 8) in
         let m = random_mat rng rows cols in
         let pr = Perm.random rng rows and pc = Perm.random rng cols in
         let w = Mat.copy m in
         Perm.permute_rows_inplace pr w;
         Perm.permute_cols_inplace pc w;
         Perm.permute_cols_inplace (Perm.inverse pc) w;
         Perm.permute_rows_inplace (Perm.inverse pr) w;
         Mat.equal ~tol:0. w m);
    Test.make ~name:"views agree with materialized submatrices" ~count:40 small_int
      (fun seed ->
         let rng = Rng.create (seed + 131) in
         let rows = 1 + (abs seed mod 6) and cols = 1 + (abs (seed * 19) mod 6) in
         let m = random_mat rng rows cols in
         let vr = Array.init (1 + (abs (seed * 3) mod rows)) (fun i -> (i + abs seed) mod rows) in
         let vc = Array.init (1 + (abs (seed * 5) mod cols)) (fun i -> (i + abs (seed * 7)) mod cols) in
         let v = Mat.view m ~rows:vr ~cols:vc in
         let expected =
           Mat.init (Array.length vr) (Array.length vc) (fun i j -> Mat.get m vr.(i) vc.(j))
         in
         Mat.equal ~tol:0. (Mat.of_view v) expected);
  ]

let () =
  Alcotest.run "bose_linalg"
    [
      ("cx", [ Alcotest.test_case "arithmetic" `Quick test_cx_arith ]);
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "adjoint involution" `Quick test_mat_adjoint_involution;
          Alcotest.test_case "mul associative" `Quick test_mat_mul_associative;
          Alcotest.test_case "trace/frobenius" `Quick test_mat_trace_frobenius;
          Alcotest.test_case "unitary norms" `Quick test_mat_row_col_norms;
          Alcotest.test_case "swap" `Quick test_mat_swap;
          Alcotest.test_case "fidelity metric" `Quick test_mat_fidelity_metric;
          Alcotest.test_case "rot roundtrip" `Quick test_rot_cols_roundtrip;
          Alcotest.test_case "rot matches dense" `Quick test_rot_matches_dense;
        ] );
      ( "givens",
        [
          Alcotest.test_case "eliminates entry" `Quick test_givens_eliminates;
          Alcotest.test_case "small angle" `Quick test_givens_small_angle_for_small_entry;
          Alcotest.test_case "zero entry" `Quick test_givens_zero_entry;
        ] );
      ( "perm",
        [
          Alcotest.test_case "compose/inverse" `Quick test_perm_compose_inverse;
          Alcotest.test_case "matrix consistency" `Quick test_perm_matrix_consistency;
          Alcotest.test_case "permute list" `Quick test_perm_permute_list;
          Alcotest.test_case "invalid input" `Quick test_perm_invalid;
        ] );
      ( "unitary",
        [
          Alcotest.test_case "qr reconstruction" `Quick test_qr_reconstruction;
          Alcotest.test_case "haar unitary" `Quick test_haar_unitary;
          Alcotest.test_case "orthogonal real" `Quick test_orthogonal_real;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "known 2x2" `Quick test_eigen_known;
          Alcotest.test_case "reconstruct" `Quick test_eigen_reconstruct;
          Alcotest.test_case "rejects asymmetric" `Quick test_eigen_rejects_asymmetric;
        ] );
      ("takagi", [ Alcotest.test_case "roundtrip" `Quick test_takagi_roundtrip ]);
      ( "kernels",
        [
          Alcotest.test_case "of_arrays zero cols" `Quick test_of_arrays_zero_cols;
          Alcotest.test_case "create overflowing dims" `Quick test_create_overflowing_dims;
          Alcotest.test_case "gemm vs naive" `Quick test_gemm_matches_naive;
          Alcotest.test_case "gemm variants vs naive" `Quick test_gemm_variants_match_naive;
          Alcotest.test_case "gemm aliasing" `Quick test_gemm_rejects_aliasing;
          Alcotest.test_case "axpy/scale" `Quick test_axpy_scale_match_reference;
          Alcotest.test_case "rot rows vs dense" `Quick test_rot_rows_matches_dense;
          Alcotest.test_case "ranged rotations" `Quick test_ranged_rotations;
          Alcotest.test_case "rotation angle accessors" `Quick test_rotation_angle_accessors;
          Alcotest.test_case "permute in place" `Quick test_permute_inplace_matches_pure;
          Alcotest.test_case "views" `Quick test_views_match_submatrix;
          Alcotest.test_case "workspace" `Quick test_workspace_reuses_scratch;
          Alcotest.test_case "trace_mul" `Quick test_trace_mul_matches;
          Alcotest.test_case "rot kernels vs pure-OCaml reference" `Quick
            test_rot_kernels_match_reference;
          Alcotest.test_case "blocking dispatch observable" `Quick
            test_blocking_dispatch_observable;
          Alcotest.test_case "sweep kernels vs pure-OCaml reference" `Quick
            test_sweep_kernels_match_reference;
          Alcotest.test_case "sweep split bit-identity" `Quick
            test_sweep_split_bit_identity;
          Alcotest.test_case "sweep vs per-rotation kernels" `Quick
            test_sweep_agrees_with_percall_kernels;
          Alcotest.test_case "plane codec round-trip" `Quick test_plane_codec_roundtrip;
          Alcotest.test_case "draws match the boxed QR at N = 127..129" `Quick
            test_draws_match_oracle_at_threshold;
        ]
        @ List.map (fun t -> QCheck_alcotest.to_alcotest t)
            [ prop_draws_match_oracle; prop_walk_matches_oracle; prop_replay_matches_oracle ] );
      ( "linsolve",
        [
          Alcotest.test_case "known det" `Quick test_linsolve_known_det;
          Alcotest.test_case "unitary det" `Quick test_linsolve_unitary_det_modulus;
          Alcotest.test_case "inverse" `Quick test_linsolve_inverse;
          Alcotest.test_case "solve" `Quick test_linsolve_solve;
          Alcotest.test_case "singular" `Quick test_linsolve_singular;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) qcheck_tests);
    ]
