module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Givens = Bose_linalg.Givens
module Pattern = Bose_hardware.Pattern
module Obs = Bose_obs.Obs

let c_eliminations = Obs.Counter.make "decomp.eliminations"
let c_decompositions = Obs.Counter.make "decomp.decompositions"
let c_beamsplitters = Obs.Counter.make "decomp.beamsplitters"

let h_angles =
  Obs.Histo.make "decomp.rotation_angles"
    ~bounds:[| 1e-4; 1e-3; 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 |]

(* A pattern's elimination order, flattened once: stage [s] zeroes
   matrix row [rows.(s)] through pairs [starts.(s) .. starts.(s+1) - 1]
   of [ms]/[ns]. *)
type schedule = {
  modes : int;
  rows : int array;
  starts : int array;
  ms : int array;
  ns : int array;
}

let schedule pattern =
  let stages = Array.of_list (Pattern.full_schedule pattern) in
  let starts = Array.make (Array.length stages + 1) 0 in
  Array.iteri (fun s (_, ps) -> starts.(s + 1) <- starts.(s) + List.length ps) stages;
  let ms = Array.make starts.(Array.length stages) 0 in
  let ns = Array.make starts.(Array.length stages) 0 in
  Array.iteri
    (fun s (_, ps) ->
       List.iteri
         (fun i (m, n) ->
            ms.(starts.(s) + i) <- m;
            ns.(starts.(s) + i) <- n)
         ps)
    stages;
  { modes = Pattern.size pattern; rows = Array.map fst stages; starts; ms; ns }

let rotation_count s = Array.length s.ms

(* The one schedule walker, behind both plans ([run]) and search-loop
   scores ([angles_into]): it derives every rotation in schedule order
   and applies it to the work matrix. Two engines, chosen by size only
   — never pool presence — so plan bits at a given N are the same at
   every job count.

   Every rotation of a stage derives from and updates the stage's own
   row. Stage [row] rotates only rows 0..row. Stages run in descending
   row order, so every later stage derives from a lower row, and a
   column rotation updates each row from that row's own two entries:
   the rows still to be eliminated get bit-identical values. The rows
   below are finished. Their live columns hold exact zeros, which a
   full sweep would only turn into signed zeros, and their diagonal
   entry — all that Λ reads — sits in a root column that no later stage
   rotates.

   Below [fused_threshold] the per-call engine keeps the work matrix
   transposed ([Mat.rot_cols_t_dagger_transposed]): each column
   rotation is one unit-stride rotation of a row pair over the prefix
   0..row, and each rotation is derived into one reused
   [Givens.quad] straight from the matrix, so a score-only walk boxes
   nothing. At or above it, the fused engine runs the derivations
   serially on the stage row (through the same sweep kernel, keeping
   serial- and bulk-phase arithmetic identical), then applies the whole
   packed stage to the rows above it in one pool-chunked bulk pass.
   Stage order is a barrier: the next stage's derivations read rows the
   bulk pass just updated. *)
let fused_threshold = Mat.blocking_threshold

(* [emit k row rotation] receives pair [k]'s rotation. *)
let walk_fused ?pool sched work emit =
  let n = sched.modes in
  let seq = Mat.Rotseq.create ~capacity:n () in
  Array.iteri
    (fun s row ->
       Mat.Rotseq.clear seq;
       for k = sched.starts.(s) to sched.starts.(s + 1) - 1 do
         let m = sched.ms.(k) in
         let rotation = Givens.solve work ~row ~m ~n:sched.ns.(k) in
         if not (Givens.is_identity rotation) then begin
           let len = Mat.Rotseq.length seq in
           Givens.seq_push_t_dagger_right seq rotation ~nrows:n;
           Mat.sweep_cols_pre work seq ~rot_lo:len ~rot_hi:(len + 1) ~row_lo:row
             ~row_hi:(row + 1);
           Mat.set work row m Cx.zero
         end;
         Obs.Counter.incr c_eliminations;
         emit k row rotation
       done;
       let len = Mat.Rotseq.length seq in
       if len > 0 then
         Bose_par.Pool.bulk_iter pool ~n:row (fun ~lo ~hi ->
             Mat.sweep_cols_pre work seq ~rot_lo:0 ~rot_hi:len ~row_lo:lo ~row_hi:hi))
    sched.rows

(* [wt] holds the transpose of the work matrix; [emit k row q] finds
   pair [k]'s rotation in [q], which the next pair overwrites. *)
let walk_transposed sched wt emit =
  let q = Givens.quad () in
  Array.iteri
    (fun s row ->
       for k = sched.starts.(s) to sched.starts.(s + 1) - 1 do
         Givens.eliminate_transposed q wt ~row ~m:sched.ms.(k) ~n:sched.ns.(k);
         emit k row q
       done)
    sched.rows;
  Obs.Counter.incr c_eliminations ~by:(rotation_count sched)

let check_size name n u =
  if Mat.rows u <> n || Mat.cols u <> n then
    invalid_arg (name ^ ": unitary size does not match pattern")

(* The eliminated work matrix and the plan's elements. The work matrix
   comes from the workspace when one is supplied ([Mat.Slot.elimination]
   by convention, see docs/ARCHITECTURE.md), so callers that pass [?ws]
   get an allocation-free decomposition loop. Below [fused_threshold]
   it holds the transpose: Λ reads its diagonal and
   [residual_off_diagonal] its largest off-diagonal modulus, neither of
   which transposition changes. *)
let run ?ws ?pool pattern u =
  check_size "Eliminate.decompose" (Pattern.size pattern) u;
  let n = Mat.rows u in
  let work =
    match ws with
    | Some ws -> Mat.scratch ~slot:Mat.Slot.elimination ws n n
    | None -> Mat.create n n
  in
  let sched = schedule pattern in
  let elements = ref [] in
  if n >= fused_threshold then begin
    Mat.blit u work;
    walk_fused ?pool sched work (fun _ row rotation ->
        elements := { Plan.rotation; row } :: !elements)
  end
  else begin
    Mat.transpose_into ~src:u ~dst:work;
    walk_transposed sched work (fun k row q ->
        let rotation = Givens.of_quad ~m:sched.ms.(k) ~n:sched.ns.(k) q in
        elements := { Plan.rotation; row } :: !elements)
  end;
  (work, Array.of_list (List.rev !elements))

(* What one decomposition adds to the telemetry, for plans and scores
   alike: a search loop's scores count as decompositions. *)
let record_decomposition count angle =
  Obs.Counter.incr c_decompositions;
  Obs.Counter.incr c_beamsplitters ~by:count;
  if Obs.enabled () then
    for i = 0 to count - 1 do
      Obs.Histo.observe h_angles (angle i)
    done

let decompose ?ws ?pool pattern u =
  let work, elements = run ?ws ?pool pattern u in
  record_decomposition (Array.length elements) (fun i ->
      Float.abs (Givens.theta elements.(i).Plan.rotation));
  let n = Pattern.size pattern in
  let lambda =
    Array.init n (fun i ->
        let d = Mat.get work i i in
        let modulus = Cx.abs d in
        (* Diagonal entries of a fully eliminated unitary are unit-modulus;
           normalize away rounding drift. *)
        if modulus < 0.5 then
          invalid_arg "Eliminate.decompose: input does not appear unitary";
        Cx.scale (1. /. modulus) d)
  in
  { Plan.modes = n; elements; lambda }

let angles_into sched ~work u angles =
  check_size "Eliminate.angles_into" sched.modes u;
  check_size "Eliminate.angles_into" sched.modes work;
  if Array.length angles <> rotation_count sched then
    invalid_arg "Eliminate.angles_into: angle array does not match schedule";
  if sched.modes >= fused_threshold then begin
    Mat.blit u work;
    walk_fused sched work (fun k _ rotation ->
        angles.(k) <- Float.abs (Givens.theta rotation))
  end
  else begin
    Mat.transpose_into ~src:u ~dst:work;
    walk_transposed sched work (fun k _ q -> angles.(k) <- Float.abs (Givens.quad_theta q))
  end;
  record_decomposition (Array.length angles) (Array.get angles)

let decompose_baseline ?ws ?pool u = decompose ?ws ?pool (Pattern.chain (Mat.rows u)) u

let residual_off_diagonal ?ws u pattern =
  let work, _ = run ?ws pattern u in
  let n = Mat.rows work in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then worst := Float.max !worst (Cx.abs (Mat.get work i j))
    done
  done;
  !worst
