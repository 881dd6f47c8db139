module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Obs = Bose_obs.Obs

let c_candidate_ks = Obs.Counter.make "map.candidate_ks"
let c_search_sweeps = Obs.Counter.make "map.search_sweeps"
let c_column_swaps = Obs.Counter.make "map.column_swaps"
let c_polish_trials = Obs.Counter.make "map.polish_trials"
let c_polish_accepted = Obs.Counter.make "map.polish_accepted"
let g_indicator_k = Obs.Gauge.make "map.indicator_k"
let g_small_angles = Obs.Gauge.make "map.small_angles"
let g_amplitude_gain = Obs.Gauge.make "map.amplitude_gain"

type t = {
  permuted : Mat.t;
  row_perm : Perm.t;
  col_perm : Perm.t;
  indicator_k : int;
  small_angles : int;
}

let trivial u =
  let n = Mat.rows u in
  {
    permuted = Mat.copy u;
    row_perm = Perm.identity n;
    col_perm = Perm.identity n;
    indicator_k = 0;
    small_angles = 0;
  }

let main_region_row_mass pattern u =
  let n = Mat.rows u in
  let main = Pattern.main_path_labels pattern in
  Array.init n (fun i ->
      List.fold_left (fun acc j -> acc +. Cx.abs2 (Mat.get u i j)) 0. main)

(* K-th largest value of an array (K counted from 1): in-place
   quickselect with median-of-three pivots — O(n) expected, which keeps
   the O(main·branch) exchange search linear per trial. *)
let kth_largest k a =
  let a = Array.copy a in
  let target = k - 1 in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec select lo hi =
    if lo >= hi then a.(target)
    else begin
      let mid = (lo + hi) / 2 in
      (* Median-of-three pivot, ordering descending. *)
      if a.(mid) > a.(lo) then swap mid lo;
      if a.(hi) > a.(lo) then swap hi lo;
      if a.(hi) > a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      swap mid hi;
      let store = ref lo in
      for i = lo to hi - 1 do
        if a.(i) > pivot then begin
          swap i !store;
          incr store
        end
      done;
      swap !store hi;
      if target = !store then a.(target)
      else if target < !store then select lo (!store - 1)
      else select (!store + 1) hi
    end
  in
  select 0 (Array.length a - 1)

(* Greedy column-exchange search: swap main-region columns against
   non-main columns whenever the swap raises the K-th-largest row mass.
   Returns the column permutation found and the final row-mass vector. *)
let column_search ~k u main_cols =
  let n = Mat.rows u in
  let is_main = Array.make n false in
  List.iter (fun j -> is_main.(j) <- true) main_cols;
  let branch_cols =
    List.filter (fun j -> not is_main.(j)) (List.init n (fun j -> j))
  in
  let w = Mat.copy u in
  let col_perm = ref (Perm.identity n) in
  let alpha =
    Array.init n (fun i ->
        List.fold_left (fun acc j -> acc +. Cx.abs2 (Mat.get w i j)) 0. main_cols)
  in
  let current = ref (kth_largest k alpha) in
  let initial_mass = !current in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < 5 do
    improved := false;
    incr sweeps;
    Obs.Counter.incr c_search_sweeps;
    List.iter
      (fun a ->
         List.iter
           (fun b ->
              let trial =
                Array.init n (fun i ->
                    alpha.(i) -. Cx.abs2 (Mat.get w i a) +. Cx.abs2 (Mat.get w i b))
              in
              let candidate = kth_largest k trial in
              if candidate > !current +. 1e-12 then begin
                Mat.swap_cols w a b;
                Array.blit trial 0 alpha 0 n;
                col_perm := Perm.compose (Perm.swap n a b) !col_perm;
                current := candidate;
                improved := true;
                Obs.Counter.incr c_column_swaps
              end)
           branch_cols)
      main_cols
  done;
  (* §V-C objective: how much main-path K-th row mass the exchange
     search accumulated, relative to the unpermuted unitary. *)
  if initial_mass > 0. then
    Obs.Gauge.observe_max g_amplitude_gain (!current /. initial_mass);
  (w, !col_perm, alpha)

(* Assign the heaviest non-main columns to branch regions closest to the
   start point: branch region order follows the main path, so earlier
   regions are eliminated into larger accumulated amplitudes. Column
   weight is its mass inside the K heaviest rows. *)
let branch_assignment ~k w alpha regions =
  let n = Mat.rows w in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare alpha.(j) alpha.(i)) order;
  let heavy_rows = Array.sub order 0 (min k n) in
  let col_weight j =
    Array.fold_left (fun acc i -> acc +. Cx.abs2 (Mat.get w i j)) 0. heavy_rows
  in
  match regions with
  | [] | [ _ ] -> Perm.identity n
  | _main :: branch_regions ->
    let positions = List.concat branch_regions in
    let weights = List.map (fun j -> (col_weight j, j)) positions in
    let sorted_cols =
      List.map snd (List.sort (fun (wa, _) (wb, _) -> compare wb wa) weights)
    in
    (* Send the c-th heaviest column to the c-th branch position. *)
    let p = Perm.to_array (Perm.identity n) in
    List.iter2 (fun src dst -> p.(src) <- dst) sorted_cols positions;
    Perm.of_array p

(* Rows with the largest main-region mass go to the bottom (highest
   index), since elimination runs bottom-up. *)
let row_sort w main_cols =
  let n = Mat.rows w in
  let alpha =
    Array.init n (fun i ->
        List.fold_left (fun acc j -> acc +. Cx.abs2 (Mat.get w i j)) 0. main_cols)
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare alpha.(i) alpha.(j)) order;
  (* order.(dest) = source row; row_perm maps source -> dest. *)
  let p = Array.make n 0 in
  Array.iteri (fun dest src -> p.(src) <- dest) order;
  Perm.of_array p

let run_for_k ?ws ~theta_threshold pattern u k =
  Obs.Counter.incr c_candidate_ks;
  let regions = Pattern.branch_regions pattern in
  let main_cols = List.hd regions in
  let w1, cp1, alpha = column_search ~k u main_cols in
  let cp2 = branch_assignment ~k w1 alpha regions in
  (* [w1] is owned by this call (column_search copies), so the branch
     assignment and row sort are applied in place — the candidate search
     allocates exactly one matrix per K regardless of how many
     permutations it composes. *)
  Perm.permute_cols_inplace cp2 w1;
  let col_perm = Perm.compose cp2 cp1 in
  let row_perm = row_sort w1 main_cols in
  Perm.permute_rows_inplace row_perm w1;
  let plan = Eliminate.decompose ?ws pattern w1 in
  let small = Plan.small_angle_count plan ~threshold:theta_threshold in
  { permuted = w1; row_perm; col_perm; indicator_k = k; small_angles = small }

let optimize ?ws ?(theta_threshold = 0.1) ?candidate_ks pattern u =
  let n = Mat.rows u in
  if Mat.cols u <> n || n <> Pattern.size pattern then
    invalid_arg "Mapping.optimize: unitary and pattern sizes differ";
  let candidates =
    match candidate_ks with
    | Some ks ->
      let ks = List.filter (fun k -> k >= 1 && k <= n) ks in
      if ks = [] then invalid_arg "Mapping.optimize: no valid candidate K" else ks
    | None ->
      List.sort_uniq compare
        (List.filter_map
           (fun k -> if k >= 1 && k <= n then Some k else None)
           [ n / 4; n / 3; n / 2; 2 * n / 3; max 1 (n / 2) ])
  in
  let results = List.map (run_for_k ?ws ~theta_threshold pattern u) candidates in
  let best =
    List.fold_left
      (fun best r -> if r.small_angles > best.small_angles then r else best)
      (List.hd results) (List.tl results)
  in
  Obs.Gauge.set g_indicator_k (float_of_int best.indicator_k);
  Obs.Gauge.set g_small_angles (float_of_int best.small_angles);
  best

(* Rotations droppable within a trace budget, counting each dropped
   rotation's exact cost 2(1 − cos θ), smallest angle first. The angles
   come off an in-place min-heap in the ascending order a full sort
   would give, and the sum stops at the first that overflows, so the
   count is the sort's with O(n + k log n) work and no allocation.
   Destroys [a]. *)
let droppable_within a ~budget =
  let len = Array.length a in
  let rec sift size i =
    let l = (2 * i) + 1 in
    if l < size then begin
      let c = if l + 1 < size && Float.compare a.(l + 1) a.(l) < 0 then l + 1 else l in
      if Float.compare a.(c) a.(i) < 0 then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift size c
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift len i
  done;
  let rec pop size acc =
    if size = 0 then len
    else begin
      let acc = acc +. (2. *. (1. -. cos a.(0))) in
      if acc > budget then len - size
      else begin
        a.(0) <- a.(size - 1);
        sift (size - 1) 0;
        pop (size - 1) acc
      end
    end
  in
  pop len 0.

(* Each trial scores a swap by the rotations droppable within the
   (1−τ)·N budget. The schedule, the work matrix and the angle array
   are set up once; a trial is one blit and one score-only walk. *)
let polish ?ws ?(trials = 400) ?(tau = 0.95) ~rng pattern t =
  let n = Mat.rows t.permuted in
  let w = Mat.copy t.permuted in
  let col_perm = ref t.col_perm and row_perm = ref t.row_perm in
  let sched = Eliminate.schedule pattern in
  let work =
    match ws with
    | Some ws -> Mat.scratch ~slot:Mat.Slot.elimination ws n n
    | None -> Mat.create n n
  in
  let angles = Array.make (Eliminate.rotation_count sched) 0. in
  let budget = (1. -. tau) *. float_of_int n in
  let score () =
    Eliminate.angles_into sched ~work w angles;
    droppable_within angles ~budget
  in
  let best = ref (score ()) in
  for _ = 1 to trials do
    Obs.Counter.incr c_polish_trials;
    let a = Bose_util.Rng.int rng n in
    let b = Bose_util.Rng.int rng n in
    if a <> b then begin
      let swap_rows = Bose_util.Rng.bool rng in
      if swap_rows then Mat.swap_rows w a b else Mat.swap_cols w a b;
      let s = score () in
      if s >= !best then begin
        Obs.Counter.incr c_polish_accepted;
        best := s;
        if swap_rows then row_perm := Perm.compose (Perm.swap n a b) !row_perm
        else col_perm := Perm.compose (Perm.swap n a b) !col_perm
      end
      else if swap_rows then Mat.swap_rows w a b
      else Mat.swap_cols w a b
    end
  done;
  let plan = Eliminate.decompose ?ws pattern w in
  let small = Plan.small_angle_count plan ~threshold:0.1 in
  Obs.Gauge.set g_small_angles (float_of_int small);
  {
    permuted = w;
    row_perm = !row_perm;
    col_perm = !col_perm;
    indicator_k = t.indicator_k;
    small_angles = small;
  }

let relabel_output t physical =
  let n = Perm.size t.row_perm in
  if Array.length physical <> n then invalid_arg "Mapping.relabel_output: size mismatch";
  Array.init n (fun i -> physical.(Perm.apply t.row_perm i))

let input_site t i = Perm.apply t.col_perm i

let recovered_unitary t =
  let u = Mat.copy t.permuted in
  Perm.permute_cols_inplace (Perm.inverse t.col_perm) u;
  Perm.permute_rows_inplace (Perm.inverse t.row_perm) u;
  u
