(* Tests for the bose_flow dataflow engine: hand-built negative
   fixtures fire each BH11xx code exactly (docs/DIAGNOSTICS.md), the
   ASAP depth matches an independent greedy-front oracle and
   Circuit.depth on random plans, the fidelity interval brackets the
   measured replay fidelity, and the transmission walk agrees with a
   gate-by-gate traversal of the emitted circuit. *)

module Rng = Bose_util.Rng
module Cx = Bose_linalg.Cx
module Givens = Bose_linalg.Givens
module Unitary = Bose_linalg.Unitary
module Gate = Bose_circuit.Gate
module Circuit = Bose_circuit.Circuit
module Noise = Bose_circuit.Noise
module Lattice = Bose_hardware.Lattice
module Coupling = Bose_hardware.Coupling
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Dropout = Bose_dropout.Dropout
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
module Flow = Bose_flow.Flow

let haar seed n = Unitary.haar_random (Rng.create seed) n

(* A structurally valid plan with chosen rotation pairs: unit-modulus
   phases, a fixed mixing angle, rows in elimination order. *)
let rot m n = { Givens.m; n; c = cos 0.5; s = sin 0.5; ere = 1.; eim = 0. }

let mk_plan modes pairs =
  {
    Plan.modes;
    elements =
      Array.of_list
        (List.mapi (fun i (m, n) -> { Plan.rotation = rot m n; row = i }) pairs);
    lambda = Array.init modes (fun _ -> Cx.one);
  }

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code code ds = List.mem code (codes ds)

let check_code name code ds =
  Alcotest.(check bool) (name ^ ": fires " ^ code) true (has_code code ds)

let check_no_code name code ds =
  Alcotest.(check bool) (name ^ ": no " ^ code) false (has_code code ds)

let random_kept rng k = Array.init k (fun _ -> Rng.uniform rng > 0.4)

(* --- layering ----------------------------------------------------- *)

let test_layering_basic () =
  (* (0,1) (2,3) commute; (1,2) and (0,3) each depend on both, then
     commute with each other. *)
  let plan = mk_plan 4 [ (0, 1); (2, 3); (1, 2); (0, 3) ] in
  let l = Flow.layering plan in
  Alcotest.(check int) "depth" 2 l.Flow.depth;
  Alcotest.(check (array int)) "asap" [| 0; 0; 1; 1 |] l.Flow.asap;
  Alcotest.(check int) "front 0 width" 2 (Array.length l.Flow.fronts.(0));
  (* Every rotation here is on the critical path except none: slack 0. *)
  Alcotest.(check (array int)) "slack" [| 0; 0; 0; 0 |] (Flow.slack l)

let test_layering_dropped () =
  let plan = mk_plan 4 [ (0, 1); (0, 2); (0, 3) ] in
  let l = Flow.layering ~kept:[| true; false; true |] plan in
  Alcotest.(check int) "depth skips dropped" 2 l.Flow.depth;
  Alcotest.(check int) "dropped is -1" (-1) l.Flow.asap.(1);
  let l0 = Flow.layering ~kept:[| false; false; false |] plan in
  Alcotest.(check int) "all dropped" 0 l0.Flow.depth

let test_liveness () =
  let plan = mk_plan 5 [ (0, 1); (1, 2) ] in
  let live = Flow.liveness plan in
  Alcotest.(check (list int)) "dead modes" [ 3; 4 ] live.Flow.dead;
  Alcotest.(check int) "mode 1 touches" 2 live.Flow.touches.(1);
  Alcotest.(check int) "mode 3 first" (-1) live.Flow.first_touch.(3);
  let live = Flow.liveness ~kept:[| true; false |] plan in
  Alcotest.(check (list int)) "dropout kills mode 2" [ 2; 3; 4 ] live.Flow.dead

(* --- BH11xx fixtures ---------------------------------------------- *)

let chain4 = Coupling.of_lattice (Lattice.create ~rows:1 ~cols:4)

let test_bh1101_infeasible_coupling () =
  let plan = mk_plan 4 [ (0, 1); (0, 3) ] in
  let backend = Flow.backend ~coupling:chain4 () in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_code "non-adjacent pair" "BH1101" ds;
  (* Routing budget covers the 3-hop pair: clean. *)
  let backend = Flow.backend ~coupling:chain4 ~routing_budget:2 () in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_no_code "within routing budget" "BH1101" ds;
  (* A site map sending label 3 off the graph: distance -1. *)
  let backend = Flow.backend ~coupling:chain4 ~sites:[| 0; 1; 2; 9 |] () in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_code "unmapped site" "BH1101" ds

let test_bh1102_depth_limit () =
  let plan = mk_plan 4 [ (0, 1); (0, 2); (0, 3) ] in
  let backend = Flow.backend ~max_depth:2 () in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_code "depth 3 > limit 2" "BH1102" ds;
  let backend = Flow.backend ~max_depth:3 () in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_no_code "depth at the limit" "BH1102" ds

let test_bh1103_dead_mode () =
  let plan = mk_plan 4 [ (0, 1); (1, 2) ] in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan } in
  check_code "mode 3 never mixes" "BH1103" ds;
  Alcotest.(check bool) "dead mode is a warning, not an error" false
    (List.exists Diag.is_error ds);
  let plan = mk_plan 4 [ (0, 1); (1, 2); (2, 3) ] in
  check_no_code "all modes live" "BH1103"
    (Lint.run { Lint.empty with Lint.plan = Some plan })

let test_bh1104_loss_budget () =
  let plan = mk_plan 2 [ (0, 1) ] in
  let backend =
    Flow.backend ~noise:(Noise.uniform 0.2) ~min_transmission:0.9 ()
  in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_code "transmission under floor" "BH1104" ds;
  let backend =
    Flow.backend ~noise:(Noise.uniform 1e-4) ~min_transmission:0.9 ()
  in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; backend = Some backend } in
  check_no_code "tiny loss passes" "BH1104" ds

let test_bh1105_bad_fronts () =
  let plan = mk_plan 3 [ (0, 1); (1, 2) ] in
  let bad = [ [ 0; 1 ] ] in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; fronts = Some bad } in
  check_code "shared mode in one front" "BH1105" ds;
  let good = [ [ 0 ]; [ 1 ] ] in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; fronts = Some good } in
  check_no_code "sequential fronts" "BH1105" ds;
  (* Elimination order: rotation 1 scheduled before rotation 0. *)
  let reversed = [ [ 1 ]; [ 0 ] ] in
  let ds = Lint.run { Lint.empty with Lint.plan = Some plan; fronts = Some reversed } in
  check_code "order violation" "BH1105" ds

let test_check_fronts_messages () =
  let plan = mk_plan 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "missing rotation" true
    (Flow.check_fronts plan [ [ 0 ] ] <> None);
  Alcotest.(check bool) "duplicate rotation" true
    (Flow.check_fronts plan [ [ 0 ]; [ 1; 1 ] ] <> None);
  Alcotest.(check bool) "out of range" true
    (Flow.check_fronts plan [ [ 0 ]; [ 7 ] ] <> None);
  Alcotest.(check bool) "dropped rotation scheduled" true
    (Flow.check_fronts ~kept:[| true; false |] plan [ [ 0 ]; [ 1 ] ] <> None);
  Alcotest.(check (option string)) "dropped rotation omitted"
    None
    (Flow.check_fronts ~kept:[| true; false |] plan [ [ 0 ] ])

(* --- analyze / report --------------------------------------------- *)

let test_analyze_clean_compile () =
  let n = 8 in
  let u = haar 2024 n in
  let plan = Eliminate.decompose_baseline u in
  let report = Flow.analyze plan in
  Alcotest.(check int) "modes" n report.Flow.modes;
  Alcotest.(check int) "all kept" report.Flow.rotations report.Flow.kept_rotations;
  Alcotest.(check (list int)) "no dead modes" [] report.Flow.live.Flow.dead;
  Alcotest.(check bool) "depth positive" true (report.Flow.layers.Flow.depth > 0);
  Alcotest.(check (list int)) "no unused sites" [] report.Flow.unused_sites;
  let json = Flow.report_to_json report in
  List.iter
    (fun key ->
       Alcotest.(check bool) ("json has " ^ key) true (Bose_util.Json.mem key json <> None))
    [ "depth"; "fronts"; "liveness"; "fidelity"; "dead_modes" ]

let test_analyze_policy_mask () =
  let n = 6 in
  let u = haar 11 n in
  let plan = Eliminate.decompose_baseline u in
  let policy = Dropout.make_policy (Rng.create 11) plan u ~tau:0.9 in
  let kept = Dropout.hard_kept policy plan in
  let report = Flow.analyze ~kept plan in
  let expect = Array.fold_left (fun a k -> if k then a + 1 else a) 0 kept in
  Alcotest.(check int) "kept count from mask" expect report.Flow.kept_rotations

(* --- property / differential tests -------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ASAP depth equals greedy front oracle" ~count:40
      (pair (oneofl [ 4; 8; 16 ]) small_int)
      (fun (n, seed) ->
         let plan = Eliminate.decompose_baseline (haar seed n) in
         let rng = Rng.create (seed + 1) in
         let kept = random_kept rng (Plan.rotation_count plan) in
         Flow.greedy_front_count plan = (Flow.layering plan).Flow.depth
         && Flow.greedy_front_count ~kept plan
            = (Flow.layering ~kept plan).Flow.depth);
    Test.make ~name:"ASAP depth achieved by the circuit scheduler" ~count:30
      (pair (oneofl [ 4; 8; 16 ]) small_int)
      (fun (n, seed) ->
         (* A beamsplitters-only circuit of the kept rotations has the
            same dependency structure; Circuit.depth greedy-schedules
            it independently. *)
         let plan = Eliminate.decompose_baseline (haar (seed + 2) n) in
         let rng = Rng.create seed in
         let kept = random_kept rng (Plan.rotation_count plan) in
         let c =
           Array.to_seq plan.Plan.elements
           |> Seq.mapi (fun i e -> (i, e))
           |> Seq.filter (fun (i, _) -> kept.(i))
           |> Seq.fold_left
                (fun c (_, e) ->
                   let { Givens.m; n = nn; _ } = e.Plan.rotation in
                   Circuit.add c (Gate.Beamsplitter (m, nn, 0.5, 0.)))
                (Circuit.create ~modes:n)
         in
         Circuit.depth c = (Flow.layering ~kept plan).Flow.depth);
    Test.make ~name:"fidelity interval brackets the measured fidelity" ~count:40
      (pair (int_range 3 10) small_int)
      (fun (n, seed) ->
         let plan = Eliminate.decompose_baseline (haar (seed + 3) n) in
         let rng = Rng.create (seed + 4) in
         let kept = random_kept rng (Plan.rotation_count plan) in
         let f = Plan.fidelity ~kept plan (Plan.reconstruct plan) in
         let iv = Flow.fidelity_interval ~kept plan in
         iv.Flow.lo -. 1e-9 <= f && f <= iv.Flow.hi +. 1e-9);
    Test.make ~name:"transmission agrees with a circuit gate walk" ~count:30
      (pair (int_range 2 8) small_int)
      (fun (n, seed) ->
         let plan = Eliminate.decompose_baseline (haar (seed + 5) n) in
         let rng = Rng.create (seed + 6) in
         let kept = random_kept rng (Plan.rotation_count plan) in
         let noise = Noise.uniform 0.01 in
         let eta = Array.make n 1. in
         List.iter
           (fun g ->
              let l = Noise.loss_of_gate noise g in
              match g with
              | Gate.Phase (k, _) -> eta.(k) <- eta.(k) *. (1. -. l)
              | Gate.Beamsplitter (k, j, _, _) ->
                eta.(k) <- eta.(k) *. (1. -. l);
                eta.(j) <- eta.(j) *. (1. -. l)
              | Gate.Squeeze (k, _) | Gate.Displace (k, _) ->
                eta.(k) <- eta.(k) *. (1. -. l))
           (Circuit.gates (Plan.to_circuit ~style:Plan.Tunable ~kept plan));
         let got = Flow.transmission ~kept ~noise plan in
         Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-12) eta got);
    Test.make ~name:"layering fronts always validate" ~count:40
      (pair (oneofl [ 4; 8; 16 ]) small_int)
      (fun (n, seed) ->
         let plan = Eliminate.decompose_baseline (haar (seed + 7) n) in
         let rng = Rng.create (seed + 8) in
         let kept = random_kept rng (Plan.rotation_count plan) in
         let l = Flow.layering ~kept plan in
         let fronts =
           Array.to_list (Array.map Array.to_list l.Flow.fronts)
         in
         Flow.check_fronts ~kept plan fronts = None);
  ]

let () =
  Alcotest.run "bose_flow"
    [
      ( "layering",
        [
          Alcotest.test_case "basic" `Quick test_layering_basic;
          Alcotest.test_case "dropped" `Quick test_layering_dropped;
          Alcotest.test_case "liveness" `Quick test_liveness;
        ] );
      ( "lint",
        [
          Alcotest.test_case "BH1101 coupling" `Quick test_bh1101_infeasible_coupling;
          Alcotest.test_case "BH1102 depth" `Quick test_bh1102_depth_limit;
          Alcotest.test_case "BH1103 dead mode" `Quick test_bh1103_dead_mode;
          Alcotest.test_case "BH1104 loss" `Quick test_bh1104_loss_budget;
          Alcotest.test_case "BH1105 fronts" `Quick test_bh1105_bad_fronts;
          Alcotest.test_case "check_fronts" `Quick test_check_fronts_messages;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "clean compile" `Quick test_analyze_clean_compile;
          Alcotest.test_case "policy mask" `Quick test_analyze_policy_mask;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) qcheck_tests);
    ]
