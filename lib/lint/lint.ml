module Diag = Diag
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Givens = Bose_linalg.Givens
module Unitary = Bose_linalg.Unitary
module Pattern = Bose_hardware.Pattern
module Mapping = Bose_mapping.Mapping
module Plan = Bose_decomp.Plan
module Dropout = Bose_dropout.Dropout
module Gate = Bose_circuit.Gate
module Circuit = Bose_circuit.Circuit
module Flow = Bose_flow.Flow
module Target = Bose_hardware.Target
module Obs = Bose_obs.Obs

let c_runs = Obs.Counter.make "lint.runs"
let c_diags = Obs.Counter.make "lint.diagnostics"
let c_errors = Obs.Counter.make "lint.errors"

type pipeline_trace = {
  registered : (string * string list) list;
  executed : (string * bool) list;
}

type subject = {
  unitary : Mat.t option;
  pattern : Pattern.t option;
  coupled : (int -> int -> bool) option;
  mapping : Mapping.t option;
  plan : Plan.t option;
  reference : Mat.t option;
  policy : Dropout.policy option;
  min_fidelity : float option;
  circuit : Circuit.t option;
  perms : (string * int array) list;
  views : (string * Mat.View.t) list;
  rngs : (string * Bose_util.Rng.t) list;
  pipeline : pipeline_trace option;
  cache_dir : string option;
  backend : Flow.backend option;
  fronts : int list list option;
  target_name : string option;
  compiled_target : string option;
}

let empty =
  {
    unitary = None;
    pattern = None;
    coupled = None;
    mapping = None;
    plan = None;
    reference = None;
    policy = None;
    min_fidelity = None;
    circuit = None;
    perms = [];
    views = [];
    rngs = [];
    pipeline = None;
    cache_dir = None;
    backend = None;
    fronts = None;
    target_name = None;
    compiled_target = None;
  }

(* Numeric thresholds shared with the pass contracts: the replay and
   unitarity tolerances mirror Compiler's documented 1e-8; the
   normalization tolerance matches the dev-build kernel assertion
   (Mat.rot_*_cs accept quadruples within 1e-6 of normalized), so a
   plan that lints replay-safe is also assertion-safe to replay. *)
let replay_tol = 1e-8
let unitarity_error_tol = 1e-6
let unitarity_warn_tol = 1e-8
let lambda_tol = 1e-8
let norm_warn_tol = 1e-9
let norm_replay_tol = 1e-6
let dead_angle = 1e-9

let is_finite_cx (v : Cx.t) = Float.is_finite v.re && Float.is_finite v.im

(* ------------------------------------------------------------------ *)
(* Passes. Each returns raw diagnostics; the engine applies per-code
   capping, code filtering and severity promotion.                     *)

(* BH01xx — unitary input health. *)
let check_unitary u =
  let n = Mat.rows u in
  if Mat.cols u <> n then
    [
      Diag.error ~code:"BH0101"
        (Printf.sprintf "input matrix is %dx%d, not square" n (Mat.cols u));
    ]
  else begin
    let diags = ref [] in
    let poisoned = ref false in
    for i = n - 1 downto 0 do
      for j = n - 1 downto 0 do
        if not (is_finite_cx (Mat.get u i j)) then begin
          poisoned := true;
          diags :=
            Diag.error ~code:"BH0102" ~loc:(Diag.Entry (i, j))
              ~hint:"re-generate the unitary; NaN/Inf propagates through every pass"
              "entry is NaN or infinite"
            :: !diags
        end
      done
    done;
    if not !poisoned then begin
      (* Residual max|U†U − I|: the compiled artifacts inherit whatever
         non-unitarity the input carries, so gate it at the front door. *)
      let p = Mat.create n n in
      Mat.gemm_adjoint_left ~dst:p u u;
      let residual = Mat.max_abs_diff p (Mat.identity n) in
      if residual > unitarity_error_tol then
        diags :=
          Diag.error ~code:"BH0103"
            ~hint:"the decomposition assumes an exactly unitary input (paper Eq. 1)"
            (Printf.sprintf "unitarity residual max|U\xe2\x80\xa0U - I| = %.3e exceeds %.0e"
               residual unitarity_error_tol)
          :: !diags
      else if residual > unitarity_warn_tol then
        diags :=
          Diag.warning ~code:"BH0104"
            (Printf.sprintf "unitarity residual %.3e is above the replay tolerance %.0e"
               residual unitarity_warn_tol)
          :: !diags
    end;
    !diags
  end

(* BH02xx — elimination-pattern validity. *)
let check_pattern ?coupled p =
  match Pattern.validate p with
  | Error msg -> [ Diag.error ~code:"BH0201" ("pattern structure invalid: " ^ msg) ]
  | Ok _ ->
    let n = Pattern.size p in
    let diags = ref [] in
    (* Duplicate physical sites: two labels embedded on one qumode. *)
    let by_site = Hashtbl.create 16 in
    for label = 0 to n - 1 do
      match Pattern.site p label with
      | None -> ()
      | Some site ->
        (match Hashtbl.find_opt by_site site with
         | Some prev ->
           diags :=
             Diag.error ~code:"BH0203" ~loc:(Diag.Mode label)
               (Printf.sprintf "labels %d and %d are embedded on the same physical site %d"
                  prev label site)
             :: !diags
         | None -> Hashtbl.add by_site site label)
    done;
    (* Every tree edge must be a physically coupled site pair. *)
    (match coupled with
     | None -> ()
     | Some coupled ->
       for m = 0 to n - 1 do
         List.iter
           (fun nb ->
              if nb > m then
                match (Pattern.site p m, Pattern.site p nb) with
                | Some sm, Some sn when not (coupled sm sn) ->
                  diags :=
                    Diag.error ~code:"BH0202" ~loc:(Diag.Edge (m, nb))
                      (Printf.sprintf
                         "pattern edge (%d,%d) sits on uncoupled sites (%d,%d)" m nb sm
                         sn)
                    :: !diags
                | _ -> ())
           (Pattern.neighbors p m)
       done);
    List.rev !diags

(* BH0302 — raw permutation arrays must be bijections. *)
let check_perm_array (name, a) =
  let n = Array.length a in
  let seen = Array.make (max n 1) false in
  let diags = ref [] in
  Array.iteri
    (fun i x ->
       if x < 0 || x >= n then
         diags :=
           Diag.error ~code:"BH0302" ~loc:(Diag.Mode i)
             (Printf.sprintf "permutation %s maps %d to %d, outside [0,%d)" name i x n)
           :: !diags
       else if seen.(x) then
         diags :=
           Diag.error ~code:"BH0302" ~loc:(Diag.Mode i)
             (Printf.sprintf "permutation %s is not a bijection: %d hit twice" name x)
           :: !diags
       else seen.(x) <- true)
    a;
  List.rev !diags

(* BH03xx — mapping validity: shape, and the §V-B zero-cost-relabeling
   identity, which must hold bit-exactly (permutations only move
   entries, they never do arithmetic). *)
let check_mapping ?unitary (m : Mapping.t) =
  let rows = Mat.rows m.Mapping.permuted and cols = Mat.cols m.Mapping.permuted in
  if
    rows <> cols
    || Perm.size m.Mapping.row_perm <> rows
    || Perm.size m.Mapping.col_perm <> cols
  then
    [
      Diag.error ~code:"BH0301"
        (Printf.sprintf
           "permutation sizes (%d rows, %d cols) do not match the %dx%d permuted unitary"
           (Perm.size m.Mapping.row_perm) (Perm.size m.Mapping.col_perm) rows cols);
    ]
  else begin
    let diags = ref [] in
    let recovered = Mapping.recovered_unitary m in
    let reapplied =
      Perm.permute_cols m.Mapping.col_perm (Perm.permute_rows m.Mapping.row_perm recovered)
    in
    if Mat.max_abs_diff reapplied m.Mapping.permuted <> 0. then
      diags :=
        Diag.error ~code:"BH0303"
          "re-permuting the recovered unitary does not reproduce the permuted unitary \
           bit-exactly"
        :: !diags;
    (match unitary with
     | Some u when Mat.dims u = Mat.dims recovered ->
       if Mat.max_abs_diff recovered u <> 0. then
         diags :=
           Diag.error ~code:"BH0304"
             ~hint:"permutations are zero-cost relabelings; recovery must be bit-exact \
                    (paper \xc2\xa7V-B)"
             "un-permuting the permuted unitary does not recover the program unitary \
              bit-exactly"
           :: !diags
     | Some u ->
       diags :=
         Diag.error ~code:"BH0304"
           (Printf.sprintf "program unitary is %dx%d but the mapping is on %d qumodes"
              (Mat.rows u) (Mat.cols u) rows)
         :: !diags
     | None -> ());
    List.rev !diags
  end

(* BH04xx — plan validity, in two parts. The shape checks come first:
   mode count, Λ length, each rotation's qumode pair, row and quadruple,
   and each Λ entry. Each finding is tagged structural when it makes the
   plan unsafe to replay: an index out of range, a non-finite number, or
   a quadruple denormalized past the kernel assertion tolerance. The
   replay-based checks (BH0401/BH0402/BH0405/BH0407) only run on a plan
   with no structural finding, so linting a corrupted plan never trips
   the dev-build kernel guards. *)
let plan_shape (t : Plan.t) =
  let diags = ref [] in
  let emit d = diags := (d, false) :: !diags in
  let structural d = diags := (d, true) :: !diags in
  if t.Plan.modes <= 0 then
    structural
      (Diag.error ~code:"BH0403" (Printf.sprintf "plan has %d modes" t.Plan.modes));
  if Array.length t.Plan.lambda <> t.Plan.modes then
    structural
      (Diag.error ~code:"BH0403"
         (Printf.sprintf "lambda has %d entries for %d modes" (Array.length t.Plan.lambda)
            t.Plan.modes));
  Array.iteri
    (fun i { Plan.rotation = { Givens.m; n; c; s; ere; eim }; row } ->
       let loc = Diag.Step i in
       if m < 0 || m >= t.Plan.modes || n < 0 || n >= t.Plan.modes || m = n then
         structural
           (Diag.error ~code:"BH0403" ~loc
              (Printf.sprintf "rotation addresses invalid qumode pair (%d,%d)" m n))
       else if row < 0 || row >= t.Plan.modes then
         structural
           (Diag.error ~code:"BH0403" ~loc
              (Printf.sprintf "eliminated row %d is outside [0,%d)" row t.Plan.modes))
       else if
         not
           (Float.is_finite c && Float.is_finite s && Float.is_finite ere
            && Float.is_finite eim)
       then
         structural
           (Diag.error ~code:"BH0403" ~loc "rotation quadruple contains NaN or infinity")
       else begin
         let dc = Float.abs ((c *. c) +. (s *. s) -. 1.)
         and de = Float.abs ((ere *. ere) +. (eim *. eim) -. 1.) in
         let dev = Float.max dc de in
         if dev > norm_replay_tol then
           structural
             (Diag.error ~code:"BH0406" ~loc
                ~hint:"cos\xc2\xb2\xce\xb8+sin\xc2\xb2\xce\xb8 and |e^{i\xcf\x86}| must be 1; \
                       the in-place kernels corrupt the matrix otherwise"
                (Printf.sprintf "rotation quadruple denormalized by %.3e" dev))
         else if dev > norm_warn_tol then
           emit
             (Diag.warning ~code:"BH0406" ~loc
                (Printf.sprintf "rotation quadruple denormalized by %.3e" dev))
       end)
    t.Plan.elements;
  Array.iteri
    (fun i lam ->
       if not (is_finite_cx lam) then
         structural
           (Diag.error ~code:"BH0403" ~loc:(Diag.Mode i) "lambda entry is NaN or infinite")
       else if Float.abs (Cx.abs lam -. 1.) > lambda_tol then
         emit
           (Diag.error ~code:"BH0404" ~loc:(Diag.Mode i)
              (Printf.sprintf "lambda entry has modulus %.12g, not 1" (Cx.abs lam))))
    t.Plan.lambda;
  List.rev !diags

let plan_structure t =
  List.filter_map (fun (d, structural) -> if structural then Some d else None) (plan_shape t)

let check_plan ?pattern ?reference (t : Plan.t) =
  let shape = plan_shape t in
  let diags = ref (List.rev_map fst shape) in
  let emit d = diags := d :: !diags in
  if not (List.exists snd shape) then begin
    (* Every rotation must sit on an elimination-pattern tree edge
       (hence, post-embedding, on a physical coupling). *)
    (match pattern with
     | Some p when Pattern.size p <> t.Plan.modes ->
       emit
         (Diag.error ~code:"BH0402"
            (Printf.sprintf "pattern is on %d qumodes but the plan has %d" (Pattern.size p)
               t.Plan.modes))
     | Some p ->
       Array.iteri
         (fun i { Plan.rotation = { Givens.m; n; _ }; _ } ->
            if not (List.mem n (Pattern.neighbors p m)) then
              emit
                (Diag.error ~code:"BH0402" ~loc:(Diag.Step i)
                   (Printf.sprintf "rotation (%d,%d) is not a pattern tree edge" m n)))
         t.Plan.elements
     | None -> ());
    (* Exactness: replaying the plan must reconstruct the reference
       (the permuted unitary) to the documented tolerance. *)
    (match reference with
     | Some u when Mat.dims u <> (t.Plan.modes, t.Plan.modes) ->
       emit
         (Diag.error ~code:"BH0401"
            (Printf.sprintf "replay reference is %dx%d but the plan has %d modes"
               (Mat.rows u) (Mat.cols u) t.Plan.modes))
     | Some u ->
       let residual = Mat.max_abs_diff (Plan.reconstruct t) u in
       if residual > replay_tol then
         emit
           (Diag.error ~code:"BH0401"
              ~hint:"the plan is exact by construction (paper Eq. 1); a mismatch means \
                     plan and unitary are out of sync"
              (Printf.sprintf "replay residual %.3e exceeds %.0e" residual replay_tol))
     | None -> ());
    (* Serialization integrity: save/load must be the identity. *)
    (match Plan.of_string (Plan.to_string t) with
     | Error (msg, line) ->
       emit
         (Diag.error ~code:"BH0405" ~loc:(Diag.Line line)
            ("serialized plan does not parse back: " ^ msg))
     | Ok t' ->
       if t' <> t then
         emit (Diag.error ~code:"BH0405" "save/load round-trip altered the plan"));
    (* Dead rotations: a kept beamsplitter within numerical zero of the
       identity is free to drop — the quantity dropout maximizes. *)
    Array.iteri
      (fun i { Plan.rotation; _ } ->
         let th = Float.abs (Givens.theta rotation) in
         if th < dead_angle then
           emit
             (Diag.warning ~code:"BH0407" ~loc:(Diag.Step i)
                ~hint:"dropout would remove this gate at zero fidelity cost (paper \xc2\xa7VI)"
                (Printf.sprintf "near-identity rotation (|\xce\xb8| = %.2e)" th)))
      t.Plan.elements
  end;
  List.rev !diags

(* BH05xx — dropout-policy validity. *)
let check_policy ?min_fidelity plan (p : Dropout.policy) =
  let total = Plan.rotation_count plan in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if not (p.Dropout.tau > 0. && p.Dropout.tau <= 1.) then
    emit
      (Diag.error ~code:"BH0501"
         (Printf.sprintf "accuracy threshold tau = %g is outside (0,1]" p.Dropout.tau));
  if Array.length p.Dropout.weights <> total then
    emit
      (Diag.error ~code:"BH0501"
         (Printf.sprintf "policy has %d weights for a plan with %d rotations"
            (Array.length p.Dropout.weights) total))
  else begin
    if p.Dropout.kept_count < 0 || p.Dropout.kept_count > total then
      emit
        (Diag.error ~code:"BH0501"
           (Printf.sprintf "kept count %d is outside [0,%d]" p.Dropout.kept_count total));
    let positive = ref 0 in
    Array.iteri
      (fun i w ->
         if (not (Float.is_finite w)) || w < 0. then
           emit
             (Diag.error ~code:"BH0502" ~loc:(Diag.Step i)
                (Printf.sprintf "selection weight %g is not a finite non-negative number" w))
         else if w > 0. then incr positive)
      p.Dropout.weights;
    if !positive < p.Dropout.kept_count then
      emit
        (Diag.error ~code:"BH0504"
           (Printf.sprintf
              "only %d rotations have positive weight but %d must be kept per shot: \
               sampling without replacement cannot fill the mask"
              !positive p.Dropout.kept_count))
  end;
  let threshold = match min_fidelity with Some f -> f | None -> p.Dropout.tau in
  if p.Dropout.expected_fidelity < threshold then
    emit
      (Diag.error ~code:"BH0503"
         ~hint:"the policy search must return tau_K >= tau (paper \xc2\xa7VI-B)"
         (Printf.sprintf "expected fidelity %.6f is below the required %.6f"
            p.Dropout.expected_fidelity threshold));
  List.rev !diags

(* Structurally broken plans (out-of-range mode pairs — the plan
   pass's BH0403) would make the dataflow analysis index out of bounds;
   lint passes never raise, so the passes that analyze gate on this. *)
let pairs_in_range (plan : Plan.t) =
  plan.Plan.modes > 0
  && Array.for_all
       (fun { Plan.rotation = { Givens.m; n; _ }; _ } ->
          m >= 0 && m < plan.Plan.modes && n >= 0 && n < plan.Plan.modes && m <> n)
       plan.Plan.elements

(* BH11xx — dataflow analysis over the plan ([Bose_flow.Flow]):
   schedule depth vs. the backend limit, coupling feasibility within
   the routing budget, per-mode transmission vs. the loss-budget floor,
   modes left dead by dropout, and externally supplied commuting-front
   schedules. When a policy is present the analysis runs under its
   deterministic hard mask — the same rotations a shot of the compiled
   program keeps — but only if the policy structurally matches the plan
   (shape mismatches are the policy pass's BH05xx findings; this pass
   must not raise on them). *)
let check_flow ?backend ?policy ?fronts plan =
  let total = Plan.rotation_count plan in
  if not (pairs_in_range plan) then []
  else begin
  let kept =
    match (policy : Dropout.policy option) with
    | Some p
      when Array.length p.Dropout.weights = total
           && p.Dropout.kept_count >= 0
           && p.Dropout.kept_count <= total ->
      Some (Dropout.hard_kept p plan)
    | Some _ | None -> None
  in
  let b = match backend with Some b -> b | None -> Flow.backend () in
  let report = Flow.analyze ?kept ?backend plan in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun { Flow.rotation; pair = m, n; distance } ->
       emit
         (Diag.error ~code:"BH1101" ~loc:(Diag.Step rotation)
            ~hint:"route the pair (raise the routing budget) or re-embed the pattern"
            (if distance < 0 then
               Printf.sprintf "rotation (%d,%d) maps to no valid backend site" m n
             else
               Printf.sprintf
                 "rotation (%d,%d) needs %d coupling hops; the backend allows %d" m n
                 distance (1 + b.Flow.routing_budget))))
    report.Flow.infeasible_rotations;
  (match report.Flow.max_depth with
   | Some limit when report.Flow.layers.Flow.depth > limit ->
     emit
       (Diag.error ~code:"BH1102"
          ~hint:"deepen dropout (lower tau) or pick a backend with more depth headroom"
          (Printf.sprintf "schedule depth %d exceeds the backend limit %d"
             report.Flow.layers.Flow.depth limit))
   | Some _ | None -> ());
  List.iter
    (fun v ->
       emit
         (Diag.warning ~code:"BH1103" ~loc:(Diag.Mode v)
            ~hint:
              (if kept = None then
                 "the mode never mixes with the interferometer; shrink the program \
                  or re-embed"
               else "dropout removed every beamsplitter on this mode; raise tau")
            "no kept rotation touches this mode"))
    report.Flow.live.Flow.dead;
  if report.Flow.transmission_range.Flow.lo < b.Flow.min_transmission then begin
    Array.iteri
      (fun v eta ->
         if eta < b.Flow.min_transmission then
           emit
             (Diag.error ~code:"BH1104" ~loc:(Diag.Mode v)
                ~hint:"fewer kept rotations (lower tau) or better hardware; loss \
                       compounds per gate"
                (Printf.sprintf "transmission %.6f is below the loss-budget floor %.6f"
                   eta b.Flow.min_transmission)))
      report.Flow.per_mode_transmission
  end;
  (match fronts with
   | None -> ()
   | Some fronts ->
     (match Flow.check_fronts ?kept plan fronts with
      | None -> ()
      | Some reason ->
        emit
          (Diag.error ~code:"BH1105"
             ~hint:"fronts must partition the kept rotations into mode-disjoint sets \
                    in elimination order (Flow.layering computes a valid schedule)"
             ("commuting-front schedule invalid: " ^ reason))));
    List.rev !diags
  end

(* BH13xx — hardware-target identity. The subject names the target the
   artifact is being checked against ([target_name], e.g. `bosec check
   --target`); [compiled_target] is what the artifact itself records it
   was compiled for (e.g. serve cache metadata). The depth check
   (BH1303) only runs when no flow backend is attached — with one, the
   BH11xx pass already gates depth against the same ceiling (BH1102),
   and double-reporting the same violation under two codes would force
   every consumer to dedup. *)
let check_target ?compiled_target ?plan ?policy ~has_backend name =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (match Target.find name with
   | None ->
     emit
       (Diag.error ~code:"BH1301"
          ~hint:
            (Printf.sprintf "registered targets: %s"
               (String.concat ", " (Target.names ())))
          (Printf.sprintf "unknown hardware target %S" name))
   | Some tgt ->
     (match compiled_target with
      | Some other when other <> name ->
        emit
          (Diag.error ~code:"BH1302"
             ~hint:"recompile for this target; plans do not transfer across targets"
             (Printf.sprintf "plan was compiled for target %S, checked against %S"
                other name))
      | Some _ | None -> ());
     (match plan with
      | Some plan when not has_backend ->
        (* Same structural gate as the flow pass: lint never raises. *)
        (match (pairs_in_range plan, tgt.Target.max_depth plan.Plan.modes) with
         | true, Some limit ->
           let total = Plan.rotation_count plan in
           let kept =
             match (policy : Dropout.policy option) with
             | Some p
               when Array.length p.Dropout.weights = total
                    && p.Dropout.kept_count >= 0
                    && p.Dropout.kept_count <= total ->
               Some (Dropout.hard_kept p plan)
             | Some _ | None -> None
           in
           let depth = (Flow.layering ?kept plan).Flow.depth in
           if depth > limit then
             emit
               (Diag.error ~code:"BH1303"
                  ~hint:"deepen dropout (lower tau) or pick a target with more \
                         depth headroom"
                  (Printf.sprintf
                     "schedule depth %d exceeds target %s's depth ceiling %d" depth
                     name limit))
         | _ -> ())
      | Some _ | None -> ()));
  List.rev !diags

(* BH06xx — circuit-level checks. *)
let check_circuit ?coupled ?plan ?policy c =
  let modes = Circuit.modes c in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* Mode bounds, rechecked gate by gate (defense in depth: Circuit.add
     validates, but lint also covers circuits from future loaders). *)
  List.iteri
    (fun i g ->
       let bad = List.exists (fun q -> q < 0 || q >= modes) (Gate.qumodes g) in
       let degenerate =
         match g with Gate.Beamsplitter (k, l, _, _) -> k = l | _ -> false
       in
       if bad || degenerate then
         emit
           (Diag.error ~code:"BH0601" ~loc:(Diag.Gate i)
              (Format.asprintf "gate %a addresses an invalid qumode" Gate.pp g)))
    (Circuit.gates c);
  (* Hardware compatibility of every beamsplitter pair. *)
  (match coupled with
   | None -> ()
   | Some coupled ->
     List.iter
       (fun (k, l) ->
          emit
            (Diag.error ~code:"BH0602" ~loc:(Diag.Edge (k, l))
               (Printf.sprintf "beamsplitter pair (%d,%d) is not physically coupled" k l)))
       (Circuit.check_connectivity coupled c));
  (* Table-I counter consistency: recompute the per-kind totals from
     the gate list and compare with the circuit's own counters. *)
  let recount =
    List.fold_left
      (fun (sq, d, ph, bs) -> function
         | Gate.Squeeze _ -> (sq + 1, d, ph, bs)
         | Gate.Displace _ -> (sq, d + 1, ph, bs)
         | Gate.Phase _ -> (sq, d, ph + 1, bs)
         | Gate.Beamsplitter _ -> (sq, d, ph, bs + 1))
      (0, 0, 0, 0) (Circuit.gates c)
  in
  let counts = Circuit.gate_counts c in
  let sq, d, ph, bs = recount in
  if
    sq <> counts.Circuit.squeezing
    || d <> counts.Circuit.displacement
    || ph <> counts.Circuit.phase_shifter
    || bs <> counts.Circuit.beamsplitter
  then
    emit
      (Diag.error ~code:"BH0603"
         "gate-kind counters disagree with a direct recount of the gate list");
  let depth = Circuit.depth c and len = Circuit.length c in
  if depth < 0 || depth > len || (depth = 0 && len > 0) then
    emit
      (Diag.error ~code:"BH0603"
         (Printf.sprintf "circuit depth %d is inconsistent with %d gates" depth len));
  (* Cross-artifact: a shot circuit carries one beamsplitter per kept
     rotation (Tunable MZI) or two (fixed 50:50 MZI). The prelude may
     add state-preparation gates but no interferometer beamsplitters. *)
  (match plan with
   | None -> ()
   | Some plan ->
     let kept =
       match (policy : Dropout.policy option) with
       | Some p -> p.Dropout.kept_count
       | None -> Plan.rotation_count plan
     in
     if bs <> kept && bs <> 2 * kept then
       emit
         (Diag.warning ~code:"BH0604"
            (Printf.sprintf
               "circuit has %d beamsplitters; a shot of this plan should carry %d (or %d \
                with fixed 50:50 MZIs)"
               bs kept (2 * kept))));
  List.rev !diags

(* BH0701 — view aliasing at kernel call sites. *)
let check_views views =
  let rec pairs = function
    | [] -> []
    | (name1, v1) :: rest ->
      List.filter_map
        (fun (name2, v2) ->
           if Mat.views_overlap v1 v2 then
             Some
               (Diag.error ~code:"BH0701"
                  ~hint:"in-place kernels require non-overlapping source and destination; \
                         materialize one side with Mat.of_view"
                  (Printf.sprintf "views %s and %s overlap in the same parent buffer" name1
                     name2))
           else None)
        rest
      @ pairs rest
  in
  pairs views

(* BH1001 — one RNG stream shared between concurrent tasks. [Rng.t] is
   single-stream mutable state with no internal locking: two pool tasks
   drawing from the same stream race on it and destroy replayability.
   The subject carries the named streams handed to each parallel task;
   any physically-equal pair is an error. *)
let check_rngs rngs =
  let rec pairs = function
    | [] -> []
    | (name1, r1) :: rest ->
      List.filter_map
        (fun (name2, r2) ->
           if Bose_util.Rng.same r1 r2 then
             Some
               (Diag.error ~code:"BH1001"
                  ~hint:"pre-split one stream per task with Rng.split so results depend \
                         only on the task index, never on domain interleaving"
                  (Printf.sprintf "parallel tasks %s and %s share one RNG stream" name1
                     name2))
           else None)
        rest
      @ pairs rest
  in
  pairs rngs

(* BH09xx — pass-manager execution discipline. The trace is pure data
   (pass names + cache-hit flags), so the checker works on traces from
   any pipeline, including hand-built ones in tests. A cache hit counts
   as the pass having run: cold and warm compiles of the same job must
   produce traces that lint identically. *)
let check_pipeline (t : pipeline_trace) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let runs name =
    List.length (List.filter (fun (n, _) -> n = name) t.executed)
  in
  (* Every registered pass runs exactly once. *)
  List.iter
    (fun (name, _) ->
       match runs name with
       | 1 -> ()
       | 0 ->
         emit
           (Diag.error ~code:"BH0901"
              ~hint:"a dependency that never materializes poisons every downstream pass"
              (Printf.sprintf "registered pass %s did not run" name))
       | k ->
         emit
           (Diag.error ~code:"BH0901"
              (Printf.sprintf "registered pass %s ran %d times" name k)))
    t.registered;
  (* No unregistered pass executes. *)
  List.iter
    (fun (name, _) ->
       if not (List.mem_assoc name t.registered) then
         emit
           (Diag.error ~code:"BH0902"
              (Printf.sprintf "pass %s executed but is not in the registry" name)))
    t.executed;
  (* Dependency order: a pass may only execute once every declared
     dependency has. *)
  let done_ = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
       (match List.assoc_opt name t.registered with
        | None -> ()
        | Some deps ->
          List.iter
            (fun dep ->
               if not (Hashtbl.mem done_ dep) then
                 emit
                   (Diag.error ~code:"BH0903"
                      ~hint:"the registry declares artifact inputs; executing early reads \
                             a stale or absent artifact"
                      (Printf.sprintf "pass %s executed before its dependency %s" name dep)))
            deps);
       Hashtbl.replace done_ name ())
    t.executed;
  List.rev !diags

(* BH12xx — on-disk artifact-cache integrity. The decision procedure is
   [Bose_store.Diskcache.audit] (read-only; it never repairs or
   quarantines); this pass only translates its findings into coded
   diagnostics. The runtime store self-heals everything reported here —
   reconciling the index on open, quarantining corrupt objects on read —
   so errors mean "this entry will miss", never "the server will crash". *)
let check_cache_dir dir =
  let module D = Bose_store.Diskcache in
  let msg issue = Format.asprintf "%a" D.pp_issue issue in
  List.map
    (fun issue ->
       match issue with
       | D.Bad_index _ ->
         Diag.error ~code:"BH1201"
           ~hint:"the index is a rebuildable hint; delete it (or the whole cache \
                  directory) to recover"
           (msg issue)
       | D.Missing_object _ ->
         Diag.error ~code:"BH1202"
           ~hint:"the entry will miss and recompile; reopening the cache drops it \
                  from the index"
           (msg issue)
       | D.Corrupt_object _ ->
         Diag.error ~code:"BH1203"
           ~hint:"the serve daemon quarantines this object on first read and \
                  recompiles; deleting the file is also safe"
           (msg issue)
       | D.Orphan_object _ ->
         Diag.warning ~code:"BH1204"
           ~hint:"reopening the cache adopts orphans as least-recently-used entries"
           (msg issue)
       | D.Size_mismatch _ ->
         Diag.warning ~code:"BH1205"
           ~hint:"usually a stale index after an external edit; reopening the cache \
                  re-measures every object"
           (msg issue)
       | D.Version_mismatch _ ->
         Diag.error ~code:"BH1206"
           ~hint:"the object was written by a binary with a newer container format; \
                  upgrade this binary to read it, or delete the file to recompile \
                  (the serve daemon quarantines it on first read)"
           (msg issue))
    (D.audit dir)

(* ------------------------------------------------------------------ *)
(* Registry and engine.                                                *)

type pass = { name : string; codes : string list; doc : string; run : subject -> Diag.t list }

let on_opt f = function None -> [] | Some x -> f x

let passes =
  [
    {
      name = "unitary";
      codes = [ "BH0101"; "BH0102"; "BH0103"; "BH0104" ];
      doc = "program unitary health: squareness, NaN/Inf scan, unitarity residual";
      run = (fun s -> on_opt check_unitary s.unitary);
    };
    {
      name = "pattern";
      codes = [ "BH0201"; "BH0202"; "BH0203" ];
      doc = "elimination-pattern structure, site embedding, physical coupling";
      run = (fun s -> on_opt (check_pattern ?coupled:s.coupled) s.pattern);
    };
    {
      name = "perms";
      codes = [ "BH0302" ];
      doc = "raw permutation arrays are bijections";
      run = (fun s -> List.concat_map check_perm_array s.perms);
    };
    {
      name = "mapping";
      codes = [ "BH0301"; "BH0303"; "BH0304" ];
      doc = "mapping shape and the bit-exact zero-cost-relabeling identity";
      run = (fun s -> on_opt (check_mapping ?unitary:s.unitary) s.mapping);
    };
    {
      name = "plan";
      codes = [ "BH0401"; "BH0402"; "BH0403"; "BH0404"; "BH0405"; "BH0406"; "BH0407" ];
      doc = "plan structure, replay exactness, pattern-edge addressing, round-trip";
      run = (fun s -> on_opt (check_plan ?pattern:s.pattern ?reference:s.reference) s.plan);
    };
    {
      name = "policy";
      codes = [ "BH0501"; "BH0502"; "BH0503"; "BH0504" ];
      doc = "dropout-policy shape, weight health, expected fidelity >= tau";
      run =
        (fun s ->
           match (s.plan, s.policy) with
           | Some plan, Some p -> check_policy ?min_fidelity:s.min_fidelity plan p
           | _ -> []);
    };
    {
      name = "flow";
      codes = [ "BH1101"; "BH1102"; "BH1103"; "BH1104"; "BH1105" ];
      doc = "dataflow analysis: coupling feasibility, depth/loss budgets, dead modes";
      run =
        (fun s ->
           on_opt
             (check_flow ?backend:s.backend ?policy:s.policy ?fronts:s.fronts)
             s.plan);
    };
    {
      name = "target";
      codes = [ "BH1301"; "BH1302"; "BH1303" ];
      doc = "hardware-target identity: registry membership, provenance, depth ceiling";
      run =
        (fun s ->
           on_opt
             (check_target ?compiled_target:s.compiled_target ?plan:s.plan
                ?policy:s.policy
                ~has_backend:(Option.is_some s.backend))
             s.target_name);
    };
    {
      name = "circuit";
      codes = [ "BH0601"; "BH0602"; "BH0603"; "BH0604" ];
      doc = "circuit mode bounds, connectivity, Table-I counter consistency";
      run =
        (fun s -> on_opt (check_circuit ?coupled:s.coupled ?plan:s.plan ?policy:s.policy) s.circuit);
    };
    {
      name = "aliasing";
      codes = [ "BH0701" ];
      doc = "Mat.View overlap at in-place kernel call sites";
      run = (fun s -> check_views s.views);
    };
    {
      name = "rng";
      codes = [ "BH1001" ];
      doc = "RNG stream sharing across parallel tasks";
      run = (fun s -> check_rngs s.rngs);
    };
    {
      name = "pipeline";
      codes = [ "BH0901"; "BH0902"; "BH0903" ];
      doc = "pass-manager discipline: every registered pass ran once, in dependency order";
      run = (fun s -> on_opt check_pipeline s.pipeline);
    };
    {
      name = "diskcache";
      codes = [ "BH1201"; "BH1202"; "BH1203"; "BH1204"; "BH1205"; "BH1206" ];
      doc = "on-disk artifact-cache integrity: index, object framing, orphans";
      run = (fun s -> on_opt check_cache_dir s.cache_dir);
    };
  ]

type settings = {
  disabled_passes : string list;
  disabled_codes : string list;
  werror : bool;
}

let default_settings = { disabled_passes = []; disabled_codes = []; werror = false }

(* A poisoned artifact can fire one diagnostic per entry; keep the
   first [cap] per code and summarize the rest, so output stays
   readable (and JSON bounded) on any input. *)
let cap = 16

let cap_per_code ds =
  let counts = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun (d : Diag.t) ->
         let seen = Option.value ~default:0 (Hashtbl.find_opt counts d.Diag.code) in
         Hashtbl.replace counts d.Diag.code (seen + 1);
         seen < cap)
      ds
  in
  let suppressed =
    Hashtbl.fold
      (fun code n acc -> if n > cap then (code, n - cap) :: acc else acc)
      counts []
  in
  kept
  @ List.map
      (fun (code, n) ->
         Diag.info ~code:"BH0001"
           (Printf.sprintf "%d further %s diagnostic%s suppressed" n code
              (if n = 1 then "" else "s")))
      (List.sort compare suppressed)

let run ?(settings = default_settings) subject =
  Obs.Counter.incr c_runs;
  Obs.Span.with_ "lint" (fun () ->
      let ds =
        List.concat_map
          (fun p ->
             if List.mem p.name settings.disabled_passes then []
             else Obs.Span.with_ ("lint." ^ p.name) (fun () -> cap_per_code (p.run subject)))
          passes
      in
      let ds =
        List.filter (fun (d : Diag.t) -> not (List.mem d.Diag.code settings.disabled_codes)) ds
      in
      let ds = if settings.werror then Diag.promote_warnings ds else ds in
      Obs.Counter.incr c_diags ~by:(List.length ds);
      Obs.Counter.incr c_errors ~by:(Diag.count Diag.Error ds);
      ds)

let errors ds = Diag.count Diag.Error ds
let warnings ds = Diag.count Diag.Warning ds

(* ------------------------------------------------------------------ *)
(* File loaders: I/O and parse failures as diagnostics, never raises.  *)

let with_file path ~code ~kind load =
  match open_in path with
  | exception Sys_error msg -> Error (Diag.error ~code (Printf.sprintf "cannot read %s: %s" kind msg))
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         match load ic with
         | Ok v -> Ok v
         | Error (msg, line) ->
           Error
             (Diag.error ~code ~loc:(Diag.Line line)
                (Printf.sprintf "%s: malformed %s: %s" path kind msg)))

let load_plan path = with_file path ~code:"BH0801" ~kind:"plan file" Plan.load_result

let load_unitary path = with_file path ~code:"BH0802" ~kind:"unitary file" Unitary.load_result
