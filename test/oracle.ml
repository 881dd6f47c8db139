(* Reference implementations kept for the bit-identity tests in
   test_oracle.ml and test_linalg.ml: the elimination schedule builder,
   the decomposition, the mapping polish loop, the dropout policy
   search and the xoshiro256** generator as they were before the
   per-trial overhead was taken out of polish and dropout, the
   Householder QR behind the Haar draws and the plan replay as they
   were before the small-N kernels moved to unit stride, the
   Printf/Scanf text codecs of Plan and Unitary, and the per-byte JSON
   string printer. They are slow on purpose — full decompositions per
   trial, strided column rotations, full-matrix stage sweeps, boxed
   entries, polymorphic sorts, a boxed RNG state, a format interpreter
   per line, a closure call per byte — and the library's versions must
   reproduce their every bit. *)

module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Givens = Bose_linalg.Givens
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout

(* xoshiro256** over a record of mutable int64 fields. *)
module Rng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let x = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 x;
    t.s3 <- rotl t.s3 45;
    result

  let of_key key =
    let state = ref key in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let split t n =
    let children = Array.make n t in
    for i = 0 to n - 1 do
      children.(i) <- of_key (bits64 t)
    done;
    children

  let uniform t =
    let bits = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float bits *. 0x1p-53

  let int t bound =
    let bound64 = Int64.of_int bound in
    let mask =
      let rec widen m =
        if Int64.unsigned_compare m bound64 >= 0 then m
        else widen Int64.(logor (shift_left m 1) 1L)
      in
      widen 1L
    in
    let rec draw () =
      let v = Int64.logand (bits64 t) mask in
      if Int64.unsigned_compare v bound64 < 0 then Int64.to_int v else draw ()
    in
    draw ()

  let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

  let sample_without_replacement t w m =
    let n = Array.length w in
    if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
    let keys =
      Array.init n (fun i ->
          let u = uniform t in
          let tie = uniform t in
          let key = if w.(i) > 0. then log (Float.max u 1e-300) /. w.(i) else neg_infinity in
          (key, tie, i))
    in
    Array.sort (fun (ka, ta, _) (kb, tb, _) -> compare (kb, tb) (ka, ta)) keys;
    List.init m (fun r ->
        let _, _, i = keys.(r) in
        i)
end

(* The first [m] indices by descending (key, tie), sorted exactly as the
   sampler above sorts — the selection the dropout masks must match. *)
let kept_by_sort ~keys ~ties m =
  let ranked = Array.init (Array.length keys) (fun i -> (keys.(i), ties.(i), i)) in
  Array.sort (fun (ka, ta, _) (kb, tb, _) -> compare (kb, tb) (ka, ta)) ranked;
  let kept = Array.make (Array.length keys) false in
  for r = 0 to m - 1 do
    let _, _, i = ranked.(r) in
    kept.(i) <- true
  done;
  kept

(* Schedule builder that re-sizes every subtree at every node. *)
let schedule t ~stage =
  let root = stage - 1 in
  let active w = w < stage in
  let rec subtree_size v from =
    1
    + List.fold_left
        (fun acc w -> if w = from || not (active w) then acc else acc + subtree_size w v)
        0 (Pattern.neighbors t v)
  in
  let out = ref [] in
  let rec visit v from =
    let children = List.filter (fun w -> w <> from && active w) (Pattern.neighbors t v) in
    let sized = List.map (fun w -> (subtree_size w v, w)) children in
    let ordered = List.sort (fun (sa, a) (sb, b) -> compare (sb, a) (sa, b)) sized in
    List.iter (fun (_, w) -> visit w v) ordered;
    if from >= 0 then out := (v, from) :: !out
  in
  visit root (-1);
  List.rev !out

let full_schedule t =
  let size = Pattern.size t in
  List.filter_map
    (fun i ->
       let stage = size - i in
       if stage < 2 then None else Some (stage - 1, schedule t ~stage))
    (List.init (size - 1) (fun i -> i))

(* Decomposition with a fresh work matrix per call, the rotations kept
   in a list: per-call column kernels below Mat.blocking_threshold, the
   fused stage sweeps (serially) at or above it. Every stage rotates
   every row, the finished rows below the stage row included. *)
let decompose pattern u =
  let n = Pattern.size pattern in
  let work = Mat.copy u in
  let elements = ref [] in
  let schedule = full_schedule pattern in
  if n >= Mat.blocking_threshold then begin
    let seq = Mat.Rotseq.create ~capacity:n () in
    List.iter
      (fun (row, pairs) ->
         Mat.Rotseq.clear seq;
         List.iter
           (fun (m, cn) ->
              let rotation = Givens.solve work ~row ~m ~n:cn in
              if not (Givens.is_identity rotation) then begin
                let len = Mat.Rotseq.length seq in
                Givens.seq_push_t_dagger_right seq rotation ~nrows:n;
                Mat.sweep_cols_pre work seq ~rot_lo:len ~rot_hi:(len + 1) ~row_lo:row
                  ~row_hi:(row + 1);
                Mat.set work row m Cx.zero
              end;
              elements := { Plan.rotation; row } :: !elements)
           pairs;
         let len = Mat.Rotseq.length seq in
         if len > 0 then begin
           Mat.sweep_cols_pre work seq ~rot_lo:0 ~rot_hi:len ~row_lo:0 ~row_hi:row;
           Mat.sweep_cols_pre work seq ~rot_lo:0 ~rot_hi:len ~row_lo:(row + 1) ~row_hi:n
         end)
      schedule
  end
  else
    List.iter
      (fun (row, pairs) ->
         List.iter
           (fun (m, cn) ->
              let rotation = Givens.eliminate work ~row ~m ~n:cn in
              elements := { Plan.rotation; row } :: !elements)
           pairs)
      schedule;
  let lambda =
    Array.init n (fun i ->
        let d = Mat.get work i i in
        Cx.scale (1. /. Cx.abs d) d)
  in
  { Plan.modes = n; elements = Array.of_list (List.rev !elements); lambda }

(* A random labelled tree pattern: node i > 0 hangs off a uniformly
   drawn earlier node, then every node is renamed by a random
   permutation and a random start is chosen. *)
let random_pattern st n =
  let name = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = name.(i) in
    name.(i) <- name.(j);
    name.(j) <- t
  done;
  let edges = List.init (n - 1) (fun i -> (name.(i + 1), name.(Random.State.int st (i + 1)))) in
  Pattern.of_tree ~n ~edges ~start:(Random.State.int st n) ()

(* Replay Λ·T_K⋯T_1 one strided column rotation at a time, a masked-out
   rotation keeping only its phase. *)
let reconstruct ?kept (t : Plan.t) =
  let dst = Mat.create t.modes t.modes in
  Array.iteri (fun i lam -> Mat.set dst i i lam) t.lambda;
  for i = Array.length t.elements - 1 downto 0 do
    let r = t.elements.(i).Plan.rotation in
    let dropped = match kept with Some k -> not k.(i) | None -> false in
    Givens.apply_t_right dst (if dropped then Givens.drop_mixing r else r)
  done;
  dst

let fidelity ?kept t u = Mat.unitary_fidelity (reconstruct ?kept t) u

(* Householder QR over boxed entries, each reflector dot product
   accumulated down its column. *)
let qr a =
  let open Cx in
  let n = Mat.rows a in
  let r = Mat.copy a in
  let q = Mat.identity n in
  for k = 0 to n - 2 do
    let m = n - k in
    let x = Array.init m (fun i -> Mat.get r (k + i) k) in
    let norm_x = sqrt (Array.fold_left (fun acc z -> acc +. Cx.abs2 z) 0. x) in
    if norm_x > 1e-300 then begin
      let phase = if Cx.abs x.(0) = 0. then Cx.one else Cx.exp_i (Cx.arg x.(0)) in
      let v = Array.copy x in
      v.(0) <- v.(0) +: (phase *: Cx.re norm_x);
      let norm_v2 = Array.fold_left (fun acc z -> acc +. Cx.abs2 z) 0. v in
      if norm_v2 > 1e-300 then begin
        let beta = 2. /. norm_v2 in
        for j = k to n - 1 do
          let dot = ref Cx.zero in
          for i = 0 to m - 1 do
            dot := !dot +: (Cx.conj v.(i) *: Mat.get r (k + i) j)
          done;
          let s = Cx.scale beta !dot in
          for i = 0 to m - 1 do
            Mat.set r (k + i) j (Mat.get r (k + i) j -: (v.(i) *: s))
          done
        done;
        for i = 0 to n - 1 do
          let dot = ref Cx.zero in
          for j = 0 to m - 1 do
            dot := !dot +: (Mat.get q i (k + j) *: v.(j))
          done;
          let s = Cx.scale beta !dot in
          for j = 0 to m - 1 do
            Mat.set q i (k + j) (Mat.get q i (k + j) -: (s *: Cx.conj v.(j)))
          done
        done
      end
    end
  done;
  (q, r)

let haar_random rng n =
  let g =
    Mat.init n n (fun _ _ ->
        let re, im = Bose_util.Rng.gaussian_pair rng in
        Cx.make (re /. sqrt 2.) (im /. sqrt 2.))
  in
  let q, r = qr g in
  for j = 0 to n - 1 do
    let d = Mat.get r j j in
    if Cx.abs d <> 0. then Mat.scale_col q j (Cx.exp_i (Cx.arg d))
  done;
  q

let random_orthogonal rng n =
  let q, r = qr (Mat.init n n (fun _ _ -> Cx.re (Bose_util.Rng.gaussian rng))) in
  for j = 0 to n - 1 do
    if (Mat.get r j j).re < 0. then Mat.scale_col q j (Cx.re (-1.))
  done;
  q

(* Polish scoring a full decomposition per trial with a polymorphic
   sort. The pre-change loop drew [a] and [b] with [let … and …], which
   ocamlopt evaluates left to right; the sequential lets here pin that
   order. *)
let droppable_within plan ~tau =
  let budget = (1. -. tau) *. float_of_int plan.Plan.modes in
  let a = Plan.angles plan in
  Array.sort compare a;
  let rec go i acc =
    if i >= Array.length a then i
    else begin
      let acc = acc +. (2. *. (1. -. cos a.(i))) in
      if acc > budget then i else go (i + 1) acc
    end
  in
  go 0 0.

let polish ~trials ~tau ~rng pattern (t : Mapping.t) =
  let n = Mat.rows t.Mapping.permuted in
  let w = Mat.copy t.Mapping.permuted in
  let col_perm = ref t.Mapping.col_perm and row_perm = ref t.Mapping.row_perm in
  let score () = droppable_within (decompose pattern w) ~tau in
  let best = ref (score ()) in
  for _ = 1 to trials do
    let a = Rng.int rng n in
    let b = Rng.int rng n in
    if a <> b then begin
      let swap_rows = Rng.bool rng in
      if swap_rows then Mat.swap_rows w a b else Mat.swap_cols w a b;
      let s = score () in
      if s >= !best then begin
        best := s;
        if swap_rows then row_perm := Perm.compose (Perm.swap n a b) !row_perm
        else col_perm := Perm.compose (Perm.swap n a b) !col_perm
      end
      else if swap_rows then Mat.swap_rows w a b
      else Mat.swap_cols w a b
    end
  done;
  let plan = decompose pattern w in
  {
    Mapping.permuted = w;
    row_perm = !row_perm;
    col_perm = !col_perm;
    indicator_k = t.Mapping.indicator_k;
    small_angles = Plan.small_angle_count plan ~threshold:0.1;
  }

(* Dropout policy search: the angle order re-sorted at every threshold
   probe, every mask from a full sort of its sampling keys. *)
let mask_dropping_smallest plan d =
  let a = Plan.angles plan in
  let order = Array.init (Array.length a) (fun i -> i) in
  Array.sort (fun i j -> compare a.(i) a.(j)) order;
  let kept = Array.make (Array.length a) true in
  for r = 0 to d - 1 do
    kept.(order.(r)) <- false
  done;
  kept

let find_threshold plan u ~tau =
  let a = Plan.angles plan in
  let total = Array.length a in
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let lo = ref 0 and hi = ref total in
  while !hi > !lo do
    let mid = (!lo + !hi + 1) / 2 in
    if Plan.fidelity ~kept:(mask_dropping_smallest plan mid) plan u >= tau then lo := mid
    else hi := mid - 1
  done;
  let d = !lo in
  ((if d = 0 then 0. else sorted.(d - 1)), total - d)

let make_weights angles theta_cut power =
  let cut = Float.max theta_cut 1e-12 in
  Array.map
    (fun th ->
       if th <= 0. then 0.
       else exp (Float.min 600. (float_of_int power *. (log th -. log cut))))
    angles

let sample_mask rng weights kept_count =
  let kept = Array.make (Array.length weights) false in
  List.iter (fun i -> kept.(i) <- true) (Rng.sample_without_replacement rng weights kept_count);
  kept

let make_policy ?(powers = [ 1; 2; 5; 10; 20; 50; 100 ]) ?(iterations = 40) rng plan u ~tau =
  let theta_cut, kept_count = find_threshold plan u ~tau in
  let angles = Plan.angles plan in
  let total = Array.length angles in
  if kept_count >= total then
    {
      Dropout.tau;
      theta_cut = 0.;
      kept_count = total;
      power = 1;
      weights = Array.make total 1.;
      expected_fidelity = 1.;
    }
  else begin
    let evaluate power =
      let weights = make_weights angles theta_cut power in
      let acc = ref 0. in
      for _ = 1 to iterations do
        acc := !acc +. Plan.fidelity ~kept:(sample_mask rng weights kept_count) plan u
      done;
      (power, weights, !acc /. float_of_int iterations)
    in
    let candidates = List.map evaluate powers in
    let power, weights, expected_fidelity =
      List.fold_left
        (fun (bp, bw, bf) (p, w, f) -> if f > bf then (p, w, f) else (bp, bw, bf))
        (List.hd candidates) (List.tl candidates)
    in
    { Dropout.tau; theta_cut; kept_count; power; weights; expected_fidelity }
  end

(* ---- text codecs: one Printf per line out, one Scanf per line in ---- *)

let unitary_to_string m =
  let n = Mat.rows m in
  let buf = Buffer.create (16 + (n * n * 32)) in
  Buffer.add_string buf (Printf.sprintf "unitary %d\n" n);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let (v : Cx.t) = Mat.get m i j in
      Buffer.add_string buf (Printf.sprintf "e %h %h\n" v.re v.im)
    done
  done;
  Buffer.contents buf

let plan_to_string (t : Plan.t) =
  let buf = Buffer.create (64 + (Array.length t.Plan.elements * 64)) in
  Buffer.add_string buf
    (Printf.sprintf "plan %d %d\n" t.Plan.modes (Array.length t.Plan.elements));
  Array.iter
    (fun { Plan.rotation = { Givens.m; n; c; s; ere; eim }; row } ->
       Buffer.add_string buf (Printf.sprintf "r %d %d %d %h %h %h %h\n" row m n c s ere eim))
    t.Plan.elements;
  Array.iter
    (fun (lam : Cx.t) -> Buffer.add_string buf (Printf.sprintf "l %h %h\n" lam.re lam.im))
    t.Plan.lambda;
  Buffer.contents buf

(* The lines of [s], split at '\n'; the last may lack it. *)
let line_reader s =
  let pos = ref 0 in
  let len = String.length s in
  fun () ->
    if !pos >= len then None
    else begin
      let stop = match String.index_from_opt s !pos '\n' with Some i -> i | None -> len in
      let l = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some l
    end

exception Bad_text of string

let fail msg = raise (Bad_text msg)

(* [f next] with [next] reading the next line; a failure carries the
   number of the last line read. *)
let parse_lines_with s f =
  let line = line_reader s in
  let lineno = ref 0 in
  let next () =
    incr lineno;
    match line () with Some l -> l | None -> fail "truncated input"
  in
  try Ok (f next) with Bad_text msg -> Error (msg, !lineno)

let unitary_of_string s =
  parse_lines_with s (fun next ->
      let n =
        try Scanf.sscanf (next ()) "unitary %d" (fun n -> n)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad header"
      in
      if n <= 0 then fail "bad header values";
      let m = Mat.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let v =
            try Scanf.sscanf (next ()) "e %h %h" Cx.make
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad entry line"
          in
          Mat.set m i j v
        done
      done;
      m)

let plan_of_string s =
  parse_lines_with s (fun next ->
      let modes, count =
        try Scanf.sscanf (next ()) "plan %d %d" (fun a b -> (a, b))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad header"
      in
      if modes <= 0 || count < 0 then fail "bad header values";
      let elements =
        Array.init count (fun _ ->
            try
              Scanf.sscanf (next ()) "r %d %d %d %h %h %h %h"
                (fun row m n c s ere eim ->
                   { Plan.rotation = { Givens.m; n; c; s; ere; eim }; row })
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad rotation line")
      in
      let lambda =
        Array.init modes (fun _ ->
            try Scanf.sscanf (next ()) "l %h %h" Cx.make
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad lambda line")
      in
      { Plan.modes; elements; lambda })

(* ---- JSON: one closure call and one Buffer.add_char per byte ---- *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf
