type rotation = { m : int; n : int; c : float; s : float; ere : float; eim : float }

let of_angles ~m ~n ~theta ~phi =
  { m; n; c = cos theta; s = sin theta; ere = cos phi; eim = sin phi }

let theta r = atan2 r.s r.c
let phi r = atan2 r.eim r.ere
let drop_mixing r = { r with c = 1.; s = 0. }

let matrix dim { m; n; c; s; ere; eim } =
  let t = Mat.identity dim in
  let e = Cx.make ere eim in
  Mat.set t m m (Cx.scale c e);
  Mat.set t m n (Cx.re (-.s));
  Mat.set t n m (Cx.scale s e);
  Mat.set t n n (Cx.re c);
  t

let apply_t_dagger_right u { m; n; c; s; ere; eim } =
  Mat.rot_cols_t_dagger_cs u ~m ~n ~c ~s ~ere ~eim

let apply_t_right u { m; n; c; s; ere; eim } = Mat.rot_cols_t_cs u ~m ~n ~c ~s ~ere ~eim
let apply_t_left u { m; n; c; s; ere; eim } = Mat.rot_rows_t_cs u ~m ~n ~c ~s ~ere ~eim

let apply_t_dagger_left u { m; n; c; s; ere; eim } =
  Mat.rot_rows_t_dagger_cs u ~m ~n ~c ~s ~ere ~eim

(* A rotation's kernel quadruple in flat float storage: what
   [derive_into] writes, with no boxed float in between. *)
type quad = { mutable qc : float; mutable qs : float; mutable qere : float; mutable qeim : float }

let quad () = { qc = 1.; qs = 0.; qere = 1.; qeim = 0. }

(* The rotation zeroing u_m against u_n is derived algebraically — no
   trigonometry: tan θ = |u_m|/|u_n| gives cos θ = |u_n|/h and
   sin θ = |u_m|/h with h = √(|u_m|² + |u_n|²), and the phase is the
   unit number e^{iφ} = w/|w| for w = u_m·conj(u_n) (φ = arg u_m −
   arg u_n; [flip] conjugates w for the left-elimination convention
   φ = arg u_n − arg u_m). θ and φ themselves are recovered on demand
   by the {!theta}/{!phi} accessors — the decomposition hot loop never
   pays an atan2/cos/sin. Inlined into each caller, so the entries it
   reads and the quadruple it writes stay unboxed. *)
let[@inline] derive_into q ~flip umre umim unre unim =
  let pm = (umre *. umre) +. (umim *. umim) in
  if pm = 0. then begin
    q.qc <- 1.;
    q.qs <- 0.;
    q.qere <- 1.;
    q.qeim <- 0.
  end
  else begin
    let pn = (unre *. unre) +. (unim *. unim) in
    let rm = sqrt pm and rn = sqrt pn in
    let inv_h = 1. /. sqrt (pm +. pn) in
    q.qc <- rn *. inv_h;
    q.qs <- rm *. inv_h;
    if pn = 0. then begin
      let inv = 1. /. rm in
      q.qere <- umre *. inv;
      q.qeim <- umim *. inv
    end
    else begin
      let wre = (umre *. unre) +. (umim *. unim)
      and wim = (umim *. unre) -. (umre *. unim) in
      let inv = 1. /. (rm *. rn) in
      q.qere <- wre *. inv;
      q.qeim <- wim *. inv
    end;
    if flip then q.qeim <- -.q.qeim
  end

let of_quad ~m ~n q = { m; n; c = q.qc; s = q.qs; ere = q.qere; eim = q.qeim }

let quad_theta q = atan2 q.qs q.qc

let derive ~m ~n ~flip (um : Cx.t) (un : Cx.t) =
  let q = quad () in
  derive_into q ~flip um.re um.im un.re un.im;
  of_quad ~m ~n q

let solve u ~row ~m ~n = derive ~m ~n ~flip:false (Mat.get u row m) (Mat.get u row n)

let angle_for u ~row ~m ~n = theta (solve u ~row ~m ~n)

(* A [derive]d rotation is the exact identity only in the
   nothing-to-eliminate case; skip the kernel pass then. *)
let is_identity r = r.s = 0. && r.eim = 0. && r.ere = 1.

(* The per-call engine's elimination step on a transposed work
   matrix: [wt] holds uᵀ, so u(row, m) and u(row, n) are read at
   (m, row) and (n, row), and the update to rows 0..row of u is a
   unit-stride rotation of rows m and n of [wt] over columns 0..row. *)
let[@inline] eliminate_transposed q wt ~row ~m ~n =
  derive_into q ~flip:false (Mat.get_re wt m row) (Mat.get_im wt m row) (Mat.get_re wt n row)
    (Mat.get_im wt n row);
  if not (q.qs = 0. && q.qeim = 0. && q.qere = 1.) then begin
    Mat.rot_cols_t_dagger_transposed ~nrows:(row + 1) wt ~m ~n ~c:q.qc ~s:q.qs ~ere:q.qere
      ~eim:q.qeim;
    Mat.set wt m row Cx.zero
  end

(* [?nrows]/[?first] forward to the ranged kernels, for sweeps that
   know the zero structure of the two columns/rows being mixed. *)
let eliminate ?nrows u ~row ~m ~n =
  let r = solve u ~row ~m ~n in
  if not (is_identity r) then begin
    Mat.rot_cols_t_dagger_cs ?nrows u ~m ~n ~c:r.c ~s:r.s ~ere:r.ere ~eim:r.eim;
    (* The eliminated entry is zero up to rounding; pin it exactly so later
       eliminations in the same row see a clean matrix. *)
    Mat.set u row m Cx.zero
  end;
  r

let eliminate_left ?first u ~col ~m ~n =
  let r = derive ~m ~n ~flip:true (Mat.get u m col) (Mat.get u n col) in
  if not (is_identity r) then begin
    Mat.rot_rows_t_cs ?first u ~m ~n ~c:r.c ~s:r.s ~ere:r.ere ~eim:r.eim;
    Mat.set u m col Cx.zero
  end;
  r

let solve_left u ~col ~m ~n = derive ~m ~n ~flip:true (Mat.get u m col) (Mat.get u n col)

(* Packed-sequence pushers for the fused Mat.sweep_ kernels.
   Each bakes the phase into the kernel form its sweep body consumes:
   the dagger-right push negates eim exactly as rot_cols_t_dagger_cs
   does, so `sweep_cols_pre` over a pushed sequence applies the same
   per-element arithmetic as the per-rotation elimination kernel. *)
let seq_push_t_dagger_right seq r ~nrows =
  Mat.Rotseq.push seq ~m:r.m ~n:r.n ~c:r.c ~s:r.s ~ere:r.ere ~eim:(-.r.eim) ~bound:nrows

let seq_push_t_right seq r ~nrows =
  Mat.Rotseq.push seq ~m:r.m ~n:r.n ~c:r.c ~s:r.s ~ere:r.ere ~eim:r.eim ~bound:nrows

let seq_push_t_left seq r ~first =
  Mat.Rotseq.push seq ~m:r.m ~n:r.n ~c:r.c ~s:r.s ~ere:r.ere ~eim:r.eim ~bound:first
