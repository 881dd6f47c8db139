(* Storage is two contiguous row-major float planes (real and imaginary
   parts), one Bigarray.Array1 (float64, c_layout) each, so the kernels
   below run without boxing Complex.t values, without per-row pointer
   chasing, and without bounds checks in the inner loops (indices are
   validated once at entry). Off-heap Bigarray storage — rather than
   OCaml float arrays — is what lets the C stubs hold stable data
   pointers with no GC interaction, and the binary artifact codec blit
   planes straight out of an mmapped cache object. The flat
   representation is the load-bearing secret of this module: no other
   file may assume it. *)

module A1 = Bigarray.Array1

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = { re : plane; im : plane; nrows : int; ncols : int }

(* Matrices allocated since program start — the denominator of the
   allocation gauge (compile.mats_allocated).
   Every constructor funnels through [create]. Atomic, because pool
   workers (bose_par) allocate concurrently. [offheap_bytes] counts the
   cumulative plane bytes handed to malloc by Bigarray — the off-heap
   twin of compile.bytes_allocated's GC-words gauge. *)
let alloc_count = Atomic.make 0
let offheap_bytes = Atomic.make 0

let allocations () = Atomic.get alloc_count
let bytes_offheap () = Atomic.get offheap_bytes

let make_plane len =
  (* Bigarray.create never zeroes its malloc'd block; every fresh plane
     must be filled before an entry is read. *)
  let p = A1.create Bigarray.float64 Bigarray.c_layout len in
  A1.fill p 0.;
  p

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Mat.create: negative dimension";
  (* A wrapped product would size the planes below what indexing assumes. *)
  if nrows > 0 && ncols > max_int / 16 / nrows then raise Out_of_memory;
  Atomic.incr alloc_count;
  let len = max (nrows * ncols) 1 in
  ignore (Atomic.fetch_and_add offheap_bytes (16 * len));
  { re = make_plane len; im = make_plane len; nrows; ncols }

let dims m = (m.nrows, m.ncols)
let rows m = m.nrows
let cols m = m.ncols

let[@inline] idx m i j = (i * m.ncols) + j

let[@inline] check_index m i j name =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then invalid_arg (name ^ ": index out of bounds")

let get m i j : Cx.t =
  check_index m i j "Mat.get";
  let k = idx m i j in
  { re = A1.unsafe_get m.re k; im = A1.unsafe_get m.im k }

let set m i j (v : Cx.t) =
  check_index m i j "Mat.set";
  let k = idx m i j in
  A1.unsafe_set m.re k v.Complex.re;
  A1.unsafe_set m.im k v.Complex.im

(* Component reads without a boxed Cx.t, for derivations that consume
   the two parts as plain floats. Inlined, so the floats stay unboxed. *)
let[@inline] get_re m i j =
  check_index m i j "Mat.get_re";
  A1.unsafe_get m.re (idx m i j)

let[@inline] get_im m i j =
  check_index m i j "Mat.get_im";
  A1.unsafe_get m.im (idx m i j)

let fill_zero m =
  A1.fill m.re 0.;
  A1.fill m.im 0.

let set_identity m =
  fill_zero m;
  for i = 0 to min m.nrows m.ncols - 1 do
    A1.unsafe_set m.re (idx m i i) 1.
  done

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    A1.unsafe_set m.re (idx m i i) 1.
  done;
  m

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    let base = i * ncols in
    for j = 0 to ncols - 1 do
      let (v : Cx.t) = f i j in
      A1.unsafe_set m.re (base + j) v.Complex.re;
      A1.unsafe_set m.im (base + j) v.Complex.im
    done
  done;
  m

let of_arrays a =
  let nrows = Array.length a in
  if nrows = 0 then invalid_arg "Mat.of_arrays: empty";
  let ncols = Array.length a.(0) in
  if ncols = 0 then invalid_arg "Mat.of_arrays: zero columns";
  Array.iter
    (fun row -> if Array.length row <> ncols then invalid_arg "Mat.of_arrays: ragged rows")
    a;
  init nrows ncols (fun i j -> a.(i).(j))

let to_arrays m = Array.init m.nrows (fun i -> Array.init m.ncols (fun j -> get m i j))

let of_real a = of_arrays (Array.map (Array.map Cx.re) a)

let copy m =
  let r = create m.nrows m.ncols in
  A1.blit m.re r.re;
  A1.blit m.im r.im;
  r

let blit src dst =
  if dims src <> dims dst then invalid_arg "Mat.blit: dimension mismatch";
  A1.blit src.re dst.re;
  A1.blit src.im dst.im

let transpose_into ~src ~dst =
  if dst.nrows <> src.ncols || dst.ncols <> src.nrows then
    invalid_arg "Mat.transpose_into: dst shape mismatch";
  if dst.re == src.re then invalid_arg "Mat.transpose_into: dst aliases src";
  let sre = src.re and sim = src.im and dre = dst.re and dim = dst.im in
  let nr = src.nrows and nc = src.ncols in
  for i = 0 to nr - 1 do
    let base = i * nc in
    for j = 0 to nc - 1 do
      let d = (j * nr) + i in
      A1.unsafe_set dre d (A1.unsafe_get sre (base + j));
      A1.unsafe_set dim d (A1.unsafe_get sim (base + j))
    done
  done

let transpose m =
  let t = create m.ncols m.nrows in
  transpose_into ~src:m ~dst:t;
  t

let transpose_inplace m =
  if m.nrows <> m.ncols then invalid_arg "Mat.transpose_inplace: square matrices only";
  let n = m.ncols and re = m.re and im = m.im in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = (i * n) + j and b = (j * n) + i in
      let tre = A1.unsafe_get re a and tim = A1.unsafe_get im a in
      A1.unsafe_set re a (A1.unsafe_get re b);
      A1.unsafe_set im a (A1.unsafe_get im b);
      A1.unsafe_set re b tre;
      A1.unsafe_set im b tim
    done
  done

let conj m = init m.nrows m.ncols (fun i j -> Cx.conj (get m i j))
let adjoint m = init m.ncols m.nrows (fun i j -> Cx.conj (get m j i))

let zip_with op a b =
  if dims a <> dims b then invalid_arg "Mat: dimension mismatch";
  init a.nrows a.ncols (fun i j -> op (get a i j) (get b i j))

let add = zip_with Cx.( +: )
let sub = zip_with Cx.( -: )

(* ------------------------------------------------------------------ *)
(* In-place scalar kernels.                                           *)

let scale_inplace (s : Cx.t) m =
  let sre = s.Complex.re and sim = s.Complex.im in
  let len = m.nrows * m.ncols in
  for k = 0 to len - 1 do
    let xre = A1.unsafe_get m.re k and xim = A1.unsafe_get m.im k in
    A1.unsafe_set m.re k ((xre *. sre) -. (xim *. sim));
    A1.unsafe_set m.im k ((xre *. sim) +. (xim *. sre))
  done

let scale s m =
  let r = copy m in
  scale_inplace s r;
  r

(* y <- y + a.x *)
let axpy (a : Cx.t) x y =
  if dims x <> dims y then invalid_arg "Mat.axpy: dimension mismatch";
  let are = a.Complex.re and aim = a.Complex.im in
  let len = x.nrows * x.ncols in
  for k = 0 to len - 1 do
    let xre = A1.unsafe_get x.re k and xim = A1.unsafe_get x.im k in
    A1.unsafe_set y.re k
      (A1.unsafe_get y.re k +. ((xre *. are) -. (xim *. aim)));
    A1.unsafe_set y.im k
      (A1.unsafe_get y.im k +. ((xre *. aim) +. (xim *. are)))
  done

let scale_row m i (s : Cx.t) =
  if i < 0 || i >= m.nrows then invalid_arg "Mat.scale_row: row out of bounds";
  let sre = s.Complex.re and sim = s.Complex.im in
  let base = i * m.ncols in
  for j = 0 to m.ncols - 1 do
    let k = base + j in
    let xre = A1.unsafe_get m.re k and xim = A1.unsafe_get m.im k in
    A1.unsafe_set m.re k ((xre *. sre) -. (xim *. sim));
    A1.unsafe_set m.im k ((xre *. sim) +. (xim *. sre))
  done

let scale_col m j (s : Cx.t) =
  if j < 0 || j >= m.ncols then invalid_arg "Mat.scale_col: column out of bounds";
  let sre = s.Complex.re and sim = s.Complex.im in
  for i = 0 to m.nrows - 1 do
    let k = (i * m.ncols) + j in
    let xre = A1.unsafe_get m.re k and xim = A1.unsafe_get m.im k in
    A1.unsafe_set m.re k ((xre *. sre) -. (xim *. sim));
    A1.unsafe_set m.im k ((xre *. sim) +. (xim *. sre))
  done

(* row dst <- row dst + a.row src, on columns [from..ncols-1] — the LU
   elimination kernel. *)
let row_axpy m ~src ~dst ?(from = 0) (a : Cx.t) =
  if src < 0 || src >= m.nrows || dst < 0 || dst >= m.nrows then
    invalid_arg "Mat.row_axpy: row out of bounds";
  if from < 0 || from > m.ncols then invalid_arg "Mat.row_axpy: bad column offset";
  (* Debug-only (release compiles with -noassert): src = dst is the
     row-level aliasing hazard — the update would read its own partial
     writes in a blocked implementation. *)
  assert (src <> dst);
  let are = a.Complex.re and aim = a.Complex.im in
  let sbase = src * m.ncols and dbase = dst * m.ncols in
  for j = from to m.ncols - 1 do
    let xre = A1.unsafe_get m.re (sbase + j) and xim = A1.unsafe_get m.im (sbase + j) in
    A1.unsafe_set m.re (dbase + j)
      (A1.unsafe_get m.re (dbase + j) +. ((xre *. are) -. (xim *. aim)));
    A1.unsafe_set m.im (dbase + j)
      (A1.unsafe_get m.im (dbase + j) +. ((xre *. aim) +. (xim *. are)))
  done

(* ------------------------------------------------------------------ *)
(* gemm family. All of them validate shapes, reject aliasing between   *)
(* [dst] and the operands, and run over the flat planes unchecked.     *)

let check_gemm_dst name ~dst a b rows cols =
  if dst.nrows <> rows || dst.ncols <> cols then invalid_arg (name ^ ": dst shape mismatch");
  if dst.re == a.re || dst.re == b.re then invalid_arg (name ^ ": dst aliases an input")

(* dst <- a.b (or dst += a.b with [acc]), blocked over k so the active
   rows of b stay cache-resident while a row of dst accumulates. *)
let gemm ?(acc = false) ~dst a b =
  if a.ncols <> b.nrows then invalid_arg "Mat.gemm: dimension mismatch";
  check_gemm_dst "Mat.gemm" ~dst a b a.nrows b.ncols;
  if not acc then fill_zero dst;
  let m = a.nrows and kdim = a.ncols and n = b.ncols in
  let bs = 64 in
  let k0 = ref 0 in
  while !k0 < kdim do
    let khi = min kdim (!k0 + bs) in
    for i = 0 to m - 1 do
      let abase = i * kdim and dbase = i * n in
      for k = !k0 to khi - 1 do
        let xre = A1.unsafe_get a.re (abase + k) and xim = A1.unsafe_get a.im (abase + k) in
        if xre <> 0. || xim <> 0. then begin
          let bbase = k * n in
          for j = 0 to n - 1 do
            let bre = A1.unsafe_get b.re (bbase + j) and bim = A1.unsafe_get b.im (bbase + j) in
            A1.unsafe_set dst.re (dbase + j)
              (A1.unsafe_get dst.re (dbase + j) +. ((xre *. bre) -. (xim *. bim)));
            A1.unsafe_set dst.im (dbase + j)
              (A1.unsafe_get dst.im (dbase + j) +. ((xre *. bim) +. (xim *. bre)))
          done
        end
      done
    done;
    k0 := khi
  done

(* dst <- a.b† : entry (i,j) is the dot of two contiguous rows. *)
let gemm_adjoint ?(acc = false) ~dst a b =
  if a.ncols <> b.ncols then invalid_arg "Mat.gemm_adjoint: dimension mismatch";
  check_gemm_dst "Mat.gemm_adjoint" ~dst a b a.nrows b.nrows;
  if not acc then fill_zero dst;
  let kdim = a.ncols in
  for i = 0 to a.nrows - 1 do
    let abase = i * kdim in
    for j = 0 to b.nrows - 1 do
      let bbase = j * kdim in
      let accre = ref 0. and accim = ref 0. in
      for k = 0 to kdim - 1 do
        let xre = A1.unsafe_get a.re (abase + k) and xim = A1.unsafe_get a.im (abase + k) in
        let yre = A1.unsafe_get b.re (bbase + k) and yim = A1.unsafe_get b.im (bbase + k) in
        (* x . conj y *)
        accre := !accre +. ((xre *. yre) +. (xim *. yim));
        accim := !accim +. ((xim *. yre) -. (xre *. yim))
      done;
      let d = (i * dst.ncols) + j in
      A1.unsafe_set dst.re d (A1.unsafe_get dst.re d +. !accre);
      A1.unsafe_set dst.im d (A1.unsafe_get dst.im d +. !accim)
    done
  done

(* dst <- a†.b : loop k outermost so row k of b streams through while
   the conjugated column of a is a scalar broadcast. *)
let gemm_adjoint_left ?(acc = false) ~dst a b =
  if a.nrows <> b.nrows then invalid_arg "Mat.gemm_adjoint_left: dimension mismatch";
  check_gemm_dst "Mat.gemm_adjoint_left" ~dst a b a.ncols b.ncols;
  if not acc then fill_zero dst;
  let n = b.ncols in
  for k = 0 to a.nrows - 1 do
    let abase = k * a.ncols and bbase = k * n in
    for i = 0 to a.ncols - 1 do
      let xre = A1.unsafe_get a.re (abase + i) and xim = -.A1.unsafe_get a.im (abase + i) in
      if xre <> 0. || xim <> 0. then begin
        let dbase = i * n in
        for j = 0 to n - 1 do
          let bre = A1.unsafe_get b.re (bbase + j) and bim = A1.unsafe_get b.im (bbase + j) in
          A1.unsafe_set dst.re (dbase + j)
            (A1.unsafe_get dst.re (dbase + j) +. ((xre *. bre) -. (xim *. bim)));
          A1.unsafe_set dst.im (dbase + j)
            (A1.unsafe_get dst.im (dbase + j) +. ((xre *. bim) +. (xim *. bre)))
        done
      end
    done
  done

(* dst <- a.bT (plain transpose, no conjugation) — rows dotted with rows. *)
let gemm_transpose ?(acc = false) ~dst a b =
  if a.ncols <> b.ncols then invalid_arg "Mat.gemm_transpose: dimension mismatch";
  check_gemm_dst "Mat.gemm_transpose" ~dst a b a.nrows b.nrows;
  if not acc then fill_zero dst;
  let kdim = a.ncols in
  for i = 0 to a.nrows - 1 do
    let abase = i * kdim in
    for j = 0 to b.nrows - 1 do
      let bbase = j * kdim in
      let accre = ref 0. and accim = ref 0. in
      for k = 0 to kdim - 1 do
        let xre = A1.unsafe_get a.re (abase + k) and xim = A1.unsafe_get a.im (abase + k) in
        let yre = A1.unsafe_get b.re (bbase + k) and yim = A1.unsafe_get b.im (bbase + k) in
        accre := !accre +. ((xre *. yre) -. (xim *. yim));
        accim := !accim +. ((xre *. yim) +. (xim *. yre))
      done;
      let d = (i * dst.ncols) + j in
      A1.unsafe_set dst.re d (A1.unsafe_get dst.re d +. !accre);
      A1.unsafe_set dst.im d (A1.unsafe_get dst.im d +. !accim)
    done
  done

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Mat.mul: dimension mismatch";
  let r = create a.nrows b.ncols in
  gemm ~dst:r a b;
  r

let mul_vec a v =
  if a.ncols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.nrows (fun i ->
      let base = i * a.ncols in
      let accre = ref 0. and accim = ref 0. in
      for j = 0 to a.ncols - 1 do
        let (x : Cx.t) = v.(j) in
        let are = A1.unsafe_get a.re (base + j) and aim = A1.unsafe_get a.im (base + j) in
        accre := !accre +. ((are *. x.Complex.re) -. (aim *. x.Complex.im));
        accim := !accim +. ((are *. x.Complex.im) +. (aim *. x.Complex.re))
      done;
      Cx.make !accre !accim)

let trace m =
  let n = min m.nrows m.ncols in
  let accre = ref 0. and accim = ref 0. in
  for i = 0 to n - 1 do
    accre := !accre +. A1.unsafe_get m.re (idx m i i);
    accim := !accim +. A1.unsafe_get m.im (idx m i i)
  done;
  Cx.make !accre !accim

(* tr(a.b) = sum_ik a(i,k).b(k,i) — no product matrix materialized. *)
let trace_mul a b =
  if a.ncols <> b.nrows || b.ncols <> a.nrows then
    invalid_arg "Mat.trace_mul: dimension mismatch";
  let accre = ref 0. and accim = ref 0. in
  for i = 0 to a.nrows - 1 do
    let abase = i * a.ncols in
    for k = 0 to a.ncols - 1 do
      let xre = A1.unsafe_get a.re (abase + k) and xim = A1.unsafe_get a.im (abase + k) in
      let l = (k * b.ncols) + i in
      let yre = A1.unsafe_get b.re l and yim = A1.unsafe_get b.im l in
      accre := !accre +. ((xre *. yre) -. (xim *. yim));
      accim := !accim +. ((xre *. yim) +. (xim *. yre))
    done
  done;
  Cx.make !accre !accim

let frobenius_norm m =
  let acc = ref 0. in
  let len = m.nrows * m.ncols in
  for k = 0 to len - 1 do
    let xre = A1.unsafe_get m.re k and xim = A1.unsafe_get m.im k in
    acc := !acc +. (xre *. xre) +. (xim *. xim)
  done;
  sqrt !acc

let max_abs_diff a b =
  if dims a <> dims b then invalid_arg "Mat.max_abs_diff: dimension mismatch";
  let acc = ref 0. in
  let len = a.nrows * a.ncols in
  for k = 0 to len - 1 do
    let dre = A1.unsafe_get a.re k -. A1.unsafe_get b.re k
    and dim = A1.unsafe_get a.im k -. A1.unsafe_get b.im k in
    acc := Float.max !acc (sqrt ((dre *. dre) +. (dim *. dim)))
  done;
  !acc

let equal ?(tol = 1e-9) a b = dims a = dims b && max_abs_diff a b <= tol

let is_unitary ?(tol = 1e-8) m =
  m.nrows = m.ncols
  && begin
    let p = create m.nrows m.nrows in
    gemm_adjoint_left ~dst:p m m;
    let id = identity m.nrows in
    equal ~tol p id
  end

let row_norm2 m i =
  if i < 0 || i >= m.nrows then invalid_arg "Mat.row_norm2: row out of bounds";
  let base = i * m.ncols in
  let acc = ref 0. in
  for j = 0 to m.ncols - 1 do
    let xre = A1.unsafe_get m.re (base + j) and xim = A1.unsafe_get m.im (base + j) in
    acc := !acc +. (xre *. xre) +. (xim *. xim)
  done;
  !acc

let col_norm2 m j =
  if j < 0 || j >= m.ncols then invalid_arg "Mat.col_norm2: column out of bounds";
  let acc = ref 0. in
  for i = 0 to m.nrows - 1 do
    let k = (i * m.ncols) + j in
    let xre = A1.unsafe_get m.re k and xim = A1.unsafe_get m.im k in
    acc := !acc +. (xre *. xre) +. (xim *. xim)
  done;
  !acc

let swap_rows m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.nrows then
    invalid_arg "Mat.swap_rows: row out of bounds";
  if i <> j then begin
    let ibase = i * m.ncols and jbase = j * m.ncols in
    for k = 0 to m.ncols - 1 do
      let tre = A1.unsafe_get m.re (ibase + k) and tim = A1.unsafe_get m.im (ibase + k) in
      A1.unsafe_set m.re (ibase + k) (A1.unsafe_get m.re (jbase + k));
      A1.unsafe_set m.im (ibase + k) (A1.unsafe_get m.im (jbase + k));
      A1.unsafe_set m.re (jbase + k) tre;
      A1.unsafe_set m.im (jbase + k) tim
    done
  end

let swap_cols m a b =
  if a < 0 || a >= m.ncols || b < 0 || b >= m.ncols then
    invalid_arg "Mat.swap_cols: column out of bounds";
  if a <> b then
    for i = 0 to m.nrows - 1 do
      let ka = (i * m.ncols) + a and kb = (i * m.ncols) + b in
      let tre = A1.unsafe_get m.re ka and tim = A1.unsafe_get m.im ka in
      A1.unsafe_set m.re ka (A1.unsafe_get m.re kb);
      A1.unsafe_set m.im ka (A1.unsafe_get m.im kb);
      A1.unsafe_set m.re kb tre;
      A1.unsafe_set m.im kb tim
    done

(* ------------------------------------------------------------------ *)
(* In-place permutations (cycle-following; one scratch row / scalar).  *)

let check_perm p n name =
  if Array.length p <> n then invalid_arg (name ^ ": size mismatch");
  let seen = Array.make n false in
  Array.iter
    (fun x ->
       if x < 0 || x >= n || seen.(x) then invalid_arg (name ^ ": not a permutation");
       seen.(x) <- true)
    p

(* Copy row helpers between a plane and an OCaml scratch row — the
   cycle-following permutation below carries one row through plain
   float arrays (cheap, GC-tracked, never escapes the call). *)
let row_to_scratch (p : plane) base (dst : float array) nc =
  for k = 0 to nc - 1 do
    Array.unsafe_set dst k (A1.unsafe_get p (base + k))
  done

let row_from_scratch (src : float array) (p : plane) base nc =
  for k = 0 to nc - 1 do
    A1.unsafe_set p (base + k) (Array.unsafe_get src k)
  done

(* Row i of the result is row p(i) of nothing — rather: the old row i
   ends up at row p(i), matching [Perm.permute_rows]. *)
let permute_rows_inplace p m =
  check_perm p m.nrows "Mat.permute_rows_inplace";
  let nc = m.ncols in
  let tre = Array.make (max nc 1) 0. and tim = Array.make (max nc 1) 0. in
  let visited = Array.make m.nrows false in
  for s = 0 to m.nrows - 1 do
    if (not visited.(s)) && p.(s) <> s then begin
      (* Carry old row s around its cycle, swapping through the buffer. *)
      row_to_scratch m.re (s * nc) tre nc;
      row_to_scratch m.im (s * nc) tim nc;
      visited.(s) <- true;
      let j = ref p.(s) in
      while !j <> s do
        (* Buffer holds the old row destined for row !j. *)
        for k = 0 to nc - 1 do
          let base = (!j * nc) + k in
          let rre = A1.unsafe_get m.re base and rim = A1.unsafe_get m.im base in
          A1.unsafe_set m.re base (Array.unsafe_get tre k);
          A1.unsafe_set m.im base (Array.unsafe_get tim k);
          Array.unsafe_set tre k rre;
          Array.unsafe_set tim k rim
        done;
        visited.(!j) <- true;
        j := p.(!j)
      done;
      row_from_scratch tre m.re (s * nc) nc;
      row_from_scratch tim m.im (s * nc) nc
    end
  done

(* Old column j ends up at column p(j), matching [Perm.permute_cols]. *)
let permute_cols_inplace p m =
  check_perm p m.ncols "Mat.permute_cols_inplace";
  let nc = m.ncols in
  let visited = Array.make nc false in
  for r = 0 to m.nrows - 1 do
    Array.fill visited 0 nc false;
    let base = r * nc in
    for s = 0 to nc - 1 do
      if (not visited.(s)) && p.(s) <> s then begin
        let tre = ref (A1.unsafe_get m.re (base + s))
        and tim = ref (A1.unsafe_get m.im (base + s)) in
        visited.(s) <- true;
        let j = ref p.(s) in
        while !j <> s do
          let rre = A1.unsafe_get m.re (base + !j) and rim = A1.unsafe_get m.im (base + !j) in
          A1.unsafe_set m.re (base + !j) !tre;
          A1.unsafe_set m.im (base + !j) !tim;
          tre := rre;
          tim := rim;
          visited.(!j) <- true;
          j := p.(!j)
        done;
        A1.unsafe_set m.re (base + s) !tre;
        A1.unsafe_set m.im (base + s) !tim
      end
    done
  done

let map f m = init m.nrows m.ncols (fun i j -> f (get m i j))

(* tr(u_app.u†) = sum_{ij} u_app(i,j).conj(u(i,j)), an O(N²) elementwise sum. *)
let unitary_fidelity u_app u =
  if dims u_app <> dims u || u.nrows <> u.ncols then
    invalid_arg "Mat.unitary_fidelity: need equal square matrices";
  let tre = ref 0. and tim = ref 0. in
  let len = u.nrows * u.ncols in
  for k = 0 to len - 1 do
    let are = A1.unsafe_get u_app.re k and aim = A1.unsafe_get u_app.im k in
    let bre = A1.unsafe_get u.re k and bim = A1.unsafe_get u.im k in
    tre := !tre +. ((are *. bre) +. (aim *. bim));
    tim := !tim +. ((aim *. bre) -. (are *. bim))
  done;
  sqrt ((!tre *. !tre) +. (!tim *. !tim)) /. float_of_int u.nrows

(* Householder QR. For column k, build v = x + e^{i·arg x₀}‖x‖·e₀ and
   reflect the trailing block of r and the trailing columns of q. Every
   entry gets the arithmetic of the boxed Cx formulation (conj v·r
   written out as (vr·zr − (−vi)·zi, vr·zi + (−vi)·zr), and so on), in
   the same order: the dot products of the r update accumulate row by
   row, all columns at once, which keeps each column's own summation
   order (i ascending, from +0) while reading r at unit stride. *)
let qr a =
  if a.nrows <> a.ncols then invalid_arg "Mat.qr: square matrices only";
  let n = a.nrows in
  let r = copy a in
  let q = identity n in
  let rre = r.re and rim = r.im and qre = q.re and qim = q.im in
  let vre = Array.make n 0. and vim = Array.make n 0. in
  let dre = Array.make n 0. and dim = Array.make n 0. in
  for k = 0 to n - 2 do
    let m = n - k in
    let norm2 = ref 0. in
    for i = 0 to m - 1 do
      let p = ((k + i) * n) + k in
      let xre = A1.unsafe_get rre p and xim = A1.unsafe_get rim p in
      vre.(i) <- xre;
      vim.(i) <- xim;
      norm2 := !norm2 +. ((xre *. xre) +. (xim *. xim))
    done;
    let norm_x = sqrt !norm2 in
    if norm_x > 1e-300 then begin
      let x0 = Cx.make vre.(0) vim.(0) in
      let phase = if Cx.abs x0 = 0. then Cx.one else Cx.exp_i (Cx.arg x0) in
      let v0 = Cx.( +: ) x0 (Cx.( *: ) phase (Cx.re norm_x)) in
      vre.(0) <- v0.Complex.re;
      vim.(0) <- v0.Complex.im;
      let norm_v2 = ref 0. in
      for i = 0 to m - 1 do
        norm_v2 := !norm_v2 +. ((vre.(i) *. vre.(i)) +. (vim.(i) *. vim.(i)))
      done;
      if !norm_v2 > 1e-300 then begin
        let beta = 2. /. !norm_v2 in
        (* r ← (I − β v v†) r on rows k..n-1 *)
        Array.fill dre k m 0.;
        Array.fill dim k m 0.;
        for i = 0 to m - 1 do
          let vr = vre.(i) and cvi = -.vim.(i) in
          let base = (k + i) * n in
          for j = k to n - 1 do
            let zr = A1.unsafe_get rre (base + j) and zi = A1.unsafe_get rim (base + j) in
            Array.unsafe_set dre j (Array.unsafe_get dre j +. ((vr *. zr) -. (cvi *. zi)));
            Array.unsafe_set dim j (Array.unsafe_get dim j +. ((vr *. zi) +. (cvi *. zr)))
          done
        done;
        for j = k to n - 1 do
          dre.(j) <- beta *. dre.(j);
          dim.(j) <- beta *. dim.(j)
        done;
        for i = 0 to m - 1 do
          let vr = vre.(i) and vi = vim.(i) in
          let base = (k + i) * n in
          for j = k to n - 1 do
            let sr = Array.unsafe_get dre j and si = Array.unsafe_get dim j in
            let p = base + j in
            A1.unsafe_set rre p (A1.unsafe_get rre p -. ((vr *. sr) -. (vi *. si)));
            A1.unsafe_set rim p (A1.unsafe_get rim p -. ((vr *. si) +. (vi *. sr)))
          done
        done;
        (* q ← q (I − β v v†) on columns k..n-1 *)
        for i = 0 to n - 1 do
          let base = (i * n) + k in
          let accre = ref 0. and accim = ref 0. in
          for j = 0 to m - 1 do
            let yr = A1.unsafe_get qre (base + j) and yi = A1.unsafe_get qim (base + j) in
            let vr = Array.unsafe_get vre j and vi = Array.unsafe_get vim j in
            accre := !accre +. ((yr *. vr) -. (yi *. vi));
            accim := !accim +. ((yr *. vi) +. (yi *. vr))
          done;
          let sr = beta *. !accre and si = beta *. !accim in
          for j = 0 to m - 1 do
            let vr = Array.unsafe_get vre j and cvi = -.Array.unsafe_get vim j in
            let p = base + j in
            A1.unsafe_set qre p (A1.unsafe_get qre p -. ((sr *. vr) -. (si *. cvi)));
            A1.unsafe_set qim p (A1.unsafe_get qim p -. ((sr *. cvi) +. (si *. vr)))
          done
        done
      end
    end
  done;
  (q, r)

let[@inline] check_rot m n name =
  if m < 0 || n < 0 || m = n then invalid_arg (name ^ ": bad index pair")

(* Debug-only kernel guard, compiled out by -noassert (the release
   profile): a rotation quadruple fed to the in-place kernels must be
   finite and normalized — c²+s² = 1 and |e^{iφ}| = 1 within 1e-6. A
   denormalized or NaN quadruple makes the C stubs silently corrupt the
   matrix; lint pass BH0406 catches this statically in plans, the
   assertion catches it dynamically at every kernel entry in dev
   builds. O(1) per call, nothing per element. *)
let rot_params_sane c s ere eim =
  Float.is_finite c && Float.is_finite s
  && Float.abs ((c *. c) +. (s *. s) -. 1.) <= 1e-6
  && Float.abs ((ere *. ere) +. (eim *. eim) -. 1.) <= 1e-6

(* The [_cs] variants take the rotation as precomputed cosines/sines:
   [c] = cos θ, [s] = sin θ, ([ere], [eim]) = e^{iφ}. The elimination
   engines derive these algebraically from the matrix entries (no trig
   in the hot loop); the angle-based entry points below wrap them. *)

(* The rotation bodies live in mat_stubs.c: the loops are pure
   flop-bound float-plane arithmetic, and FMA + vectorized C roughly
   halves their cost vs. ocamlopt's scalar output. [rot_pre] applies
   e^{iφ} to the m plane before the real rotation, [rot_post] after;
   together with a φ sign flip they cover all four kernels. Arguments:
   re im count offset_m offset_n stride c s ere eim.

   Both stubs are [@@noalloc] and keep the runtime lock: one call
   rotates one pair of runs of at most N elements, too short a loop for
   releasing the lock to pay, so entry costs a bare C call at every N. *)
external rot_pre :
  plane ->
  plane ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "bose_rot_pre_byte" "bose_rot_pre_nat"
[@@noalloc]

external rot_post :
  plane ->
  plane ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "bose_rot_post_byte" "bose_rot_post_nat"
[@@noalloc]

(* u <- u.T†: for each row r,
   u(r,m)' = u(r,m).e^{-i phi} cos theta − u(r,n).sin theta
   u(r,n)' = u(r,m).e^{-i phi} sin theta + u(r,n).cos theta
   [?nrows] restricts the update to the first [nrows] rows — for
   callers (Clements sweeps) that know both columns are zero below. *)
let rot_cols_t_dagger_cs ?nrows u ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_cols_t_dagger";
  if m >= u.ncols || n >= u.ncols then invalid_arg "Mat.rot_cols_t_dagger: column out of bounds";
  assert (rot_params_sane c s ere eim);
  let count =
    match nrows with
    | None -> u.nrows
    | Some r ->
      if r < 0 || r > u.nrows then invalid_arg "Mat.rot_cols_t_dagger: bad nrows";
      r
  in
  rot_pre u.re u.im count m n u.ncols c s ere (-.eim)

(* u <- u.T: for each row r,
   u(r,m)' = (u(r,m).cos theta + u(r,n).sin theta).e^{i phi}
   u(r,n)' = −u(r,m).sin theta + u(r,n).cos theta *)
let rot_cols_t_cs u ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_cols_t";
  if m >= u.ncols || n >= u.ncols then invalid_arg "Mat.rot_cols_t: column out of bounds";
  assert (rot_params_sane c s ere eim);
  rot_post u.re u.im u.nrows m n u.ncols c s ere eim

(* u <- T.u: row m' = e^{i phi} cos theta.row m − sin theta.row n,
            row n' = e^{i phi} sin theta.row m + cos theta.row n.
   [?first] restricts the update to columns [first ..] — for callers
   (Clements sweeps) that know both rows are zero to the left. *)
let rot_rows_t_cs ?first u ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_rows_t";
  if m >= u.nrows || n >= u.nrows then invalid_arg "Mat.rot_rows_t: row out of bounds";
  let j0 =
    match first with
    | None -> 0
    | Some j ->
      if j < 0 || j > u.ncols then invalid_arg "Mat.rot_rows_t: bad first";
      j
  in
  assert (rot_params_sane c s ere eim);
  rot_pre u.re u.im (u.ncols - j0) ((m * u.ncols) + j0) ((n * u.ncols) + j0) 1 c s ere eim

(* u <- T†.u: row m' = e^{-i phi}(cos theta.row m + sin theta.row n),
             row n' = −sin theta.row m + cos theta.row n. *)
let rot_rows_t_dagger_cs u ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_rows_t_dagger";
  if m >= u.nrows || n >= u.nrows then invalid_arg "Mat.rot_rows_t_dagger: row out of bounds";
  assert (rot_params_sane c s ere eim);
  rot_post u.re u.im u.ncols (m * u.ncols) (n * u.ncols) 1 c s ere (-.eim)

(* Column rotations of a matrix u kept transposed: [wt] holds uᵀ, so
   column j of u is the contiguous row j of [wt], and a column rotation
   of u is a unit-stride rotation of a row pair of [wt]. Each entry of
   u goes through the same C element body, with the same arguments, as
   under [rot_cols_t_dagger_cs] / [rot_cols_t_cs] on u itself; only its
   address differs. *)

(* u ← u·T† on rows 0..nrows-1 of u: columns 0..nrows-1 of rows m and
   n of [wt]. *)
let[@inline] rot_cols_t_dagger_transposed ~nrows wt ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_cols_t_dagger_transposed";
  if m >= wt.nrows || n >= wt.nrows then
    invalid_arg "Mat.rot_cols_t_dagger_transposed: column out of bounds";
  if nrows < 0 || nrows > wt.ncols then
    invalid_arg "Mat.rot_cols_t_dagger_transposed: bad nrows";
  assert (rot_params_sane c s ere eim);
  rot_pre wt.re wt.im nrows (m * wt.ncols) (n * wt.ncols) 1 c s ere (-.eim)

(* u ← u·T: the whole of rows m and n of [wt]. *)
let[@inline] rot_cols_t_transposed wt ~m ~n ~c ~s ~ere ~eim =
  check_rot m n "Mat.rot_cols_t_transposed";
  if m >= wt.nrows || n >= wt.nrows then
    invalid_arg "Mat.rot_cols_t_transposed: column out of bounds";
  assert (rot_params_sane c s ere eim);
  rot_post wt.re wt.im wt.ncols (m * wt.ncols) (n * wt.ncols) 1 c s ere eim

let rot_cols_t_dagger u ~m ~n ~theta ~phi =
  rot_cols_t_dagger_cs u ~m ~n ~c:(cos theta) ~s:(sin theta) ~ere:(cos phi) ~eim:(sin phi)

let rot_cols_t u ~m ~n ~theta ~phi =
  rot_cols_t_cs u ~m ~n ~c:(cos theta) ~s:(sin theta) ~ere:(cos phi) ~eim:(sin phi)

let rot_rows_t u ~m ~n ~theta ~phi =
  rot_rows_t_cs u ~m ~n ~c:(cos theta) ~s:(sin theta) ~ere:(cos phi) ~eim:(sin phi)

let rot_rows_t_dagger u ~m ~n ~theta ~phi =
  rot_rows_t_dagger_cs u ~m ~n ~c:(cos theta) ~s:(sin theta) ~ere:(cos phi) ~eim:(sin phi)

(* ------------------------------------------------------------------ *)
(* Binary plane codec. The serialized form of a matrix's payload is
   the two planes, row-major, little-endian IEEE-754 doubles, re plane
   then im plane — [Plan]/[Unitary] wrap this in their headers and the
   FNV-1a trailer (docs/SERVING.md, object layout v2). Three access
   paths share the format: Buffer append on encode, string reads on
   the plain decode, and a per-plane memcpy out of an mmapped cache
   object on the zero-copy decode. *)

type bigbytes = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

external ba_blit_to_plane : bigbytes -> int -> plane -> int -> int -> unit
  = "bose_ba_blit_to_plane"
[@@noalloc]

external ba_fnv1a64 : bigbytes -> int -> int -> int64 = "bose_ba_fnv1a64"

let plane_bytes m = 8 * m.nrows * m.ncols

let encode_planes buf m =
  let len = m.nrows * m.ncols in
  for k = 0 to len - 1 do
    Buffer.add_int64_le buf (Int64.bits_of_float (A1.unsafe_get m.re k))
  done;
  for k = 0 to len - 1 do
    Buffer.add_int64_le buf (Int64.bits_of_float (A1.unsafe_get m.im k))
  done

let decode_planes_string ~rows ~cols s ~pos =
  if rows < 0 || cols < 0 then invalid_arg "Mat.decode_planes_string: negative dimension";
  let len = rows * cols in
  if pos < 0 || pos + (16 * len) > String.length s then
    invalid_arg "Mat.decode_planes_string: range out of bounds";
  let m = create rows cols in
  for k = 0 to len - 1 do
    A1.unsafe_set m.re k (Int64.float_of_bits (String.get_int64_le s (pos + (8 * k))))
  done;
  let ibase = pos + (8 * len) in
  for k = 0 to len - 1 do
    A1.unsafe_set m.im k (Int64.float_of_bits (String.get_int64_le s (ibase + (8 * k))))
  done;
  m

let decode_planes_bigbytes ~rows ~cols ba ~pos =
  if rows < 0 || cols < 0 then invalid_arg "Mat.decode_planes_bigbytes: negative dimension";
  let len = rows * cols in
  if pos < 0 || pos + (16 * len) > A1.dim ba then
    invalid_arg "Mat.decode_planes_bigbytes: range out of bounds";
  let m = create rows cols in
  if Sys.big_endian then begin
    (* Portable fallback: assemble each little-endian double by hand.
       Only ever taken on big-endian hosts, where the memcpy below
       would reinterpret the bytes wrongly. *)
    let read_f64 off =
      let v = ref 0L in
      for b = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8)
               (Int64.of_int (Char.code (A1.unsafe_get ba (off + b))))
      done;
      Int64.float_of_bits !v
    in
    for k = 0 to len - 1 do
      A1.unsafe_set m.re k (read_f64 (pos + (8 * k)));
      A1.unsafe_set m.im k (read_f64 (pos + (8 * (len + k))))
    done
  end
  else begin
    ba_blit_to_plane ba pos m.re 0 len;
    ba_blit_to_plane ba (pos + (8 * len)) m.im 0 len
  end;
  m

let bigbytes_sub_string ba ~pos ~len =
  if pos < 0 || len < 0 || pos + len > A1.dim ba then
    invalid_arg "Mat.bigbytes_sub_string: range out of bounds";
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (A1.unsafe_get ba (pos + i))
  done;
  Bytes.unsafe_to_string b

let fnv1a64_bigbytes ba ~pos ~len =
  if pos < 0 || len < 0 || pos + len > A1.dim ba then
    invalid_arg "Mat.fnv1a64_bigbytes: range out of bounds";
  ba_fnv1a64 ba pos len

(* ------------------------------------------------------------------ *)
(* Views: submatrices as index sets, no storage copied.               *)

module View = struct
  type nonrec t = { base : t; row_idx : int array; col_idx : int array }

  let rows v = Array.length v.row_idx
  let cols v = Array.length v.col_idx

  let get v i j = get v.base v.row_idx.(i) v.col_idx.(j)
end

let view m ~rows ~cols =
  Array.iter
    (fun i -> if i < 0 || i >= m.nrows then invalid_arg "Mat.view: row index out of bounds")
    rows;
  Array.iter
    (fun j -> if j < 0 || j >= m.ncols then invalid_arg "Mat.view: column index out of bounds")
    cols;
  { View.base = m; row_idx = rows; col_idx = cols }

let view_full m =
  {
    View.base = m;
    row_idx = Array.init m.nrows (fun i -> i);
    col_idx = Array.init m.ncols (fun j -> j);
  }

let of_view v =
  init (View.rows v) (View.cols v) (fun i j -> View.get v i j)

(* Two views alias iff they read the same storage: same parent planes
   (physical equality — every constructor allocates a fresh Bigarray,
   so plane identity is buffer identity) and at least one shared row
   index and one shared column index. Index sets are small and may
   repeat entries, so membership goes through a per-dimension occupancy
   bitmap rather than sorting. *)
let index_sets_intersect n a b =
  let seen = Array.make (max n 1) false in
  Array.iter (fun i -> seen.(i) <- true) a;
  Array.exists (fun j -> seen.(j)) b

let views_overlap v1 v2 =
  let b1 = v1.View.base and b2 = v2.View.base in
  b1.re == b2.re
  && index_sets_intersect b1.nrows v1.View.row_idx v2.View.row_idx
  && index_sets_intersect b1.ncols v1.View.col_idx v2.View.col_idx

(* ------------------------------------------------------------------ *)
(* Workspaces: scratch matrices reused across calls, keyed by          *)
(* (slot, rows, cols). Contents of a scratch are unspecified; the      *)
(* caller overwrites. Holders must not retain a scratch past their own *)
(* return — distinct concurrent uses take distinct slots (see          *)
(* docs/ARCHITECTURE.md, workspace-threading convention).              *)

module Slot = struct
  let elimination = 0
  let replay = 1
end

type workspace = {
  tbl : (int * int * int, t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let workspace () = { tbl = Hashtbl.create 8; hits = 0; misses = 0 }

let scratch ?(slot = 0) ws nrows ncols =
  let key = (slot, nrows, ncols) in
  match Hashtbl.find_opt ws.tbl key with
  | Some m ->
    ws.hits <- ws.hits + 1;
    m
  | None ->
    ws.misses <- ws.misses + 1;
    let m = create nrows ncols in
    Hashtbl.add ws.tbl key m;
    m

let workspace_hits ws = ws.hits
let workspace_misses ws = ws.misses

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.nrows - 1 do
    Format.fprintf fmt "@[<h>";
    for j = 0 to m.ncols - 1 do
      if j > 0 then Format.fprintf fmt "  ";
      Cx.pp fmt (get m i j)
    done;
    Format.fprintf fmt "@]";
    if i < m.nrows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
