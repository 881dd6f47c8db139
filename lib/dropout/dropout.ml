module Rng = Bose_util.Rng
module Plan = Bose_decomp.Plan
module Obs = Bose_obs.Obs

let c_dropped_gates = Obs.Counter.make "dropout.dropped_gates"
let c_fidelity_evals = Obs.Counter.make "dropout.fidelity_evals"
let c_masks_sampled = Obs.Counter.make "dropout.masks_sampled"
let g_theta_cut = Obs.Gauge.make "dropout.theta_cut"
let g_kept_count = Obs.Gauge.make "dropout.kept_count"
let g_power = Obs.Gauge.make "dropout.power_k"
let g_expected_fidelity = Obs.Gauge.make "dropout.expected_fidelity"

type policy = {
  tau : float;
  theta_cut : float;
  kept_count : int;
  power : int;
  weights : float array;
  expected_fidelity : float;
}

(* Rotation indices by ascending |θ|, and the keep-mask that drops the
   first [d] of them. *)
let angle_order plan =
  let a = Plan.angles plan in
  let order = Array.init (Array.length a) (fun i -> i) in
  Array.sort (fun i j -> compare a.(i) a.(j)) order;
  (a, order)

let mask_dropping order d =
  let kept = Array.make (Array.length order) true in
  for r = 0 to d - 1 do
    kept.(order.(r)) <- false
  done;
  kept

let find_threshold ?ws plan u ~tau =
  if tau <= 0. || tau > 1. then invalid_arg "Dropout.find_threshold: tau out of (0,1]";
  let a, order = angle_order plan in
  let total = Array.length a in
  let fidelity_dropping d =
    Obs.Counter.incr c_fidelity_evals;
    Plan.fidelity ?ws ~kept:(mask_dropping order d) plan u
  in
  (* Largest d with fidelity >= tau; fidelity decreases (approximately)
     monotonically in d, so binary search suffices. *)
  let lo = ref 0 and hi = ref total in
  (* Invariant: dropping !lo is acceptable; dropping !hi+1 .. unknown. *)
  while !hi > !lo do
    let mid = (!lo + !hi + 1) / 2 in
    if fidelity_dropping mid >= tau then lo := mid else hi := mid - 1
  done;
  let d = !lo in
  let theta_cut = if d = 0 then 0. else a.(order.(d - 1)) in
  (theta_cut, total - d)

(* Selection weights |θ_i/Θ|^K, computed in log space and clipped so the
   exponential never overflows. θ = 0 gets weight 0. *)
let make_weights angles theta_cut power =
  let cut = Float.max theta_cut 1e-12 in
  Array.map
    (fun th ->
       if th <= 0. then 0.
       else exp (Float.min 600. (float_of_int power *. (log th -. log cut))))
    angles

(* Per-shot keep-masks: the [kept_count] largest Efraimidis–Spirakis
   (key, tie) pairs ({!Rng.es_keys}) are kept. Dropout keeps most gates,
   so instead of sorting every pair the sampler finds the
   d = total − kept_count smallest with a bounded max-heap, O(n log d).
   The set of the d smallest pairs is unique unless the largest dropped
   pair equals a kept one, and only then could the full sort's order
   among equal pairs pick a different set; that case takes the sort
   ({!Rng.es_order}) on the same keys. A sampler's arrays are reused
   across the masks of one policy search. *)
type sampler = { keys : float array; ties : float array; heap : int array }

let sampler n = { keys = Array.make n 0.; ties = Array.make n 0.; heap = Array.make n 0 }

let check_kept_count name n kept_count =
  if kept_count < 0 || kept_count > n then invalid_arg (name ^ ": kept count out of range")

let kept_of_keys ?heap ~keys ~ties kept_count =
  let n = Array.length keys in
  if Array.length ties <> n then invalid_arg "Dropout.kept_of_keys: key arrays differ in length";
  check_kept_count "Dropout.kept_of_keys" n kept_count;
  let heap = match heap with Some h -> h | None -> Array.make n 0 in
  let d = n - kept_count in
  let cmp i j =
    let c = Float.compare keys.(i) keys.(j) in
    if c <> 0 then c else Float.compare ties.(i) ties.(j)
  in
  let swap a b =
    let t = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- t
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && cmp heap.(i) heap.(p) > 0 then begin
      swap i p;
      sift_up p
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < d then begin
      let c = if l + 1 < d && cmp heap.(l + 1) heap.(l) > 0 then l + 1 else l in
      if cmp heap.(c) heap.(i) > 0 then begin
        swap c i;
        sift_down c
      end
    end
  in
  for i = 0 to n - 1 do
    if i < d then begin
      heap.(i) <- i;
      sift_up i
    end
    else if d > 0 && cmp i heap.(0) < 0 then begin
      heap.(0) <- i;
      sift_down 0
    end
  done;
  let kept = Array.make n true in
  for r = 0 to d - 1 do
    kept.(heap.(r)) <- false
  done;
  let boundary_tie () =
    let top = heap.(0) in
    let tie = ref false in
    Array.iteri (fun i k -> if k && cmp i top = 0 then tie := true) kept;
    !tie
  in
  if d > 0 && kept_count > 0 && boundary_tie () then begin
    let order = Rng.es_order ~keys ~ties in
    Array.fill kept 0 n false;
    for r = 0 to kept_count - 1 do
      kept.(order.(r)) <- true
    done
  end;
  kept

let sample_mask ?sampler:s rng weights kept_count =
  let n = Array.length weights in
  check_kept_count "Dropout.sample_kept" n kept_count;
  let s = match s with Some s -> s | None -> sampler n in
  Rng.es_keys rng weights ~keys:s.keys ~ties:s.ties;
  kept_of_keys ~heap:s.heap ~keys:s.keys ~ties:s.ties kept_count

let average_fidelity ?ws rng plan u weights kept_count iterations =
  let sampler = sampler (Array.length weights) in
  let acc = ref 0. in
  for _ = 1 to iterations do
    let kept = sample_mask ~sampler rng weights kept_count in
    Obs.Counter.incr c_fidelity_evals;
    acc := !acc +. Plan.fidelity ?ws ~kept plan u
  done;
  !acc /. float_of_int iterations

let make_policy ?ws ?(powers = [ 1; 2; 5; 10; 20; 50; 100 ]) ?(iterations = 40) rng plan u ~tau =
  let theta_cut, kept_count = find_threshold ?ws plan u ~tau in
  let angles = Plan.angles plan in
  let total = Array.length angles in
  let policy =
    if kept_count >= total then
      (* Nothing can be dropped at this accuracy: degenerate keep-all policy. *)
      {
        tau;
        theta_cut = 0.;
        kept_count = total;
        power = 1;
        weights = Array.make total 1.;
        expected_fidelity = 1.;
      }
    else begin
      let evaluate power =
        let weights = make_weights angles theta_cut power in
        let fid = average_fidelity ?ws rng plan u weights kept_count iterations in
        (power, weights, fid)
      in
      let candidates = List.map evaluate powers in
      let power, weights, expected_fidelity =
        List.fold_left
          (fun (bp, bw, bf) (p, w, f) -> if f > bf then (p, w, f) else (bp, bw, bf))
          (List.hd candidates) (List.tl candidates)
      in
      { tau; theta_cut; kept_count; power; weights; expected_fidelity }
    end
  in
  Obs.Counter.incr c_dropped_gates ~by:(total - policy.kept_count);
  Obs.Gauge.set g_theta_cut policy.theta_cut;
  Obs.Gauge.set g_kept_count (float_of_int policy.kept_count);
  Obs.Gauge.set g_power (float_of_int policy.power);
  Obs.Gauge.set g_expected_fidelity policy.expected_fidelity;
  policy

let sample_kept rng policy plan =
  let total = Plan.rotation_count plan in
  if Array.length policy.weights <> total then
    invalid_arg "Dropout.sample_kept: policy does not match plan";
  Obs.Counter.incr c_masks_sampled;
  sample_mask rng policy.weights policy.kept_count

let hard_kept policy plan =
  let total = Plan.rotation_count plan in
  if policy.kept_count > total then invalid_arg "Dropout.hard_kept: policy does not match plan";
  mask_dropping (snd (angle_order plan)) (total - policy.kept_count)

let dropped_fraction policy plan =
  let total = Plan.rotation_count plan in
  float_of_int (total - policy.kept_count) /. float_of_int total
