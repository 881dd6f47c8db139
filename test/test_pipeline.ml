(* Tests for the pass-manager pipeline: the registry, batch compiles,
   disabled passes, and the BH09xx pipeline lint checker.

   The load-bearing property throughout is bit-exactness: the pipeline
   must reproduce the pre-refactor monolithic compiler byte for byte
   (same artifacts, same RNG draw order). *)

module Rng = Bose_util.Rng
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Coupling = Bose_hardware.Coupling
module Emb = Bose_hardware.Embedding
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
open Bosehedral

let device33 = Lattice.create ~rows:3 ~cols:3

(* Bit-exact artifact comparison: Plan.to_string is the hex-float
   serialization, Mat.equal ~tol:0. is exact float equality, policies
   compare field by field. *)
let check_plan_eq label (a : Plan.t) (b : Plan.t) =
  Alcotest.(check string) (label ^ ": plan bytes") (Plan.to_string a) (Plan.to_string b)

let check_mapping_eq label (a : Mapping.t) (b : Mapping.t) =
  Alcotest.(check bool)
    (label ^ ": permuted bytes")
    true
    (Mat.equal ~tol:0. a.Mapping.permuted b.Mapping.permuted);
  Alcotest.(check (array int))
    (label ^ ": row perm")
    (Bose_linalg.Perm.to_array a.Mapping.row_perm)
    (Bose_linalg.Perm.to_array b.Mapping.row_perm);
  Alcotest.(check (array int))
    (label ^ ": col perm")
    (Bose_linalg.Perm.to_array a.Mapping.col_perm)
    (Bose_linalg.Perm.to_array b.Mapping.col_perm)

let check_policy_eq label (a : Dropout.policy option) (b : Dropout.policy option) =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
    Alcotest.(check (float 0.)) (label ^ ": theta_cut") a.Dropout.theta_cut b.Dropout.theta_cut;
    Alcotest.(check int) (label ^ ": kept_count") a.Dropout.kept_count b.Dropout.kept_count;
    Alcotest.(check int) (label ^ ": power") a.Dropout.power b.Dropout.power;
    Alcotest.(check (float 0.))
      (label ^ ": expected_fidelity")
      a.Dropout.expected_fidelity b.Dropout.expected_fidelity;
    Alcotest.(check (array (float 0.))) (label ^ ": weights") a.Dropout.weights b.Dropout.weights
  | _ -> Alcotest.fail (label ^ ": one policy is None, the other is not")

let check_compiled_eq label (a : Compiler.t) (b : Compiler.t) =
  check_mapping_eq label a.Compiler.mapping b.Compiler.mapping;
  check_plan_eq label a.Compiler.plan b.Compiler.plan;
  check_policy_eq label a.Compiler.policy b.Compiler.policy

(* ------------------------------------------------- bit-exact refactor *)

(* Hand-rolled replica of the pre-pipeline monolithic Compiler.compile:
   the exact stage bodies, knob functions and RNG draw order the pass
   registry now encapsulates. The pipeline must match it byte for
   byte on every configuration. *)
let legacy_compile ~effort ~tau ~rng ~device ~config u =
  let n = Mat.rows u in
  let ws = Mat.workspace () in
  let pattern =
    if Config.uses_tree_pattern config then Emb.for_program device n
    else Emb.baseline device n
  in
  let mapping =
    if Config.uses_mapping config then begin
      let first =
        Mapping.optimize ~ws ?candidate_ks:(Pass.mapping_candidates effort n) pattern u
      in
      let trials = Pass.polish_trials effort n in
      if trials > 0 then Mapping.polish ~ws ~trials ~tau ~rng pattern first else first
    end
    else Mapping.trivial u
  in
  let plan = Eliminate.decompose ~ws pattern mapping.Mapping.permuted in
  let policy =
    if Config.uses_dropout config then begin
      let powers, iterations = Pass.dropout_knobs effort n in
      Some
        (Dropout.make_policy ~ws ~powers ~iterations rng plan mapping.Mapping.permuted
           ~tau)
    end
    else None
  in
  (mapping, plan, policy)

let test_bit_exact_vs_legacy () =
  let u = Unitary.haar_random (Rng.create 11) 9 in
  List.iter
    (fun effort ->
       List.iter
         (fun config ->
            let label =
              Config.name config ^ "/" ^ Pass.effort_name effort
            in
            let c =
              Compiler.compile ~effort ~tau:0.99 ~rng:(Rng.create 42) ~device:device33
                ~config u
            in
            let mapping, plan, policy =
              legacy_compile ~effort ~tau:0.99 ~rng:(Rng.create 42) ~device:device33
                ~config u
            in
            check_mapping_eq label c.Compiler.mapping mapping;
            check_plan_eq label c.Compiler.plan plan;
            check_policy_eq label c.Compiler.policy policy)
         Config.all)
    [ Compiler.Standard; Compiler.Fast ]

(* A compiled plan survives the v2 binary artifact codec bit-exactly:
   text → binary → text reproduces the hex-float bytes, for every
   config (phases, eliminations and lambdas all make the trip). *)
let test_plan_binary_roundtrip_bit_exact () =
  let u = Unitary.haar_random (Rng.create 19) 9 in
  List.iter
    (fun config ->
       let c =
         Compiler.compile ~tau:0.99 ~rng:(Rng.create 42) ~device:device33 ~config u
       in
       let text = Plan.to_string c.Compiler.plan in
       match Plan.of_string (Plan.to_binary_string c.Compiler.plan) with
       | Error (msg, l) ->
         Alcotest.failf "%s: binary plan parse failed: %s (line %d)" (Config.name config)
           msg l
       | Ok p ->
         Alcotest.(check string)
           (Config.name config ^ ": text→binary→text")
           text (Plan.to_string p))
    Config.all

(* ------------------------------------------------------------- batch *)

let test_compile_batch_duplicates () =
  (* A duplicate job draws the same content-keyed RNG stream as its
     first occurrence, so it compiles to the same artifacts. *)
  let u1 = Unitary.haar_random (Rng.create 18) 6 in
  let u2 = Unitary.haar_random (Rng.create 19) 6 in
  match
    Compiler.compile_batch ~tau:0.99 ~rng:(Rng.create 42) ~device:device33
      [ (u1, Config.Full_opt); (u2, Config.Baseline); (u1, Config.Full_opt) ]
  with
  | [ a; b; c ] ->
    check_compiled_eq "duplicate jobs identical" a c;
    Alcotest.(check bool) "distinct jobs distinct" false
      (Plan.to_string a.Compiler.plan = Plan.to_string b.Compiler.plan)
  | _ -> Alcotest.fail "expected three results"

(* ---------------------------------------------------- disabled passes *)

let test_disabled_dropout () =
  let u = Unitary.haar_random (Rng.create 20) 9 in
  let c =
    Compiler.compile ~tau:0.99 ~disabled_passes:[ "dropout" ] ~rng:(Rng.create 42)
      ~device:device33 ~config:Config.Full_opt u
  in
  Alcotest.(check bool) "no policy" true (c.Compiler.policy = None);
  Alcotest.(check (list string)) "trace still lints clean" []
    (List.map (fun d -> d.Diag.code) (Compiler.lint ~unitary:u c))

let test_disabled_map () =
  let u = Unitary.haar_random (Rng.create 21) 9 in
  let c =
    Compiler.compile ~tau:0.99 ~disabled_passes:[ "map" ] ~rng:(Rng.create 42)
      ~device:device33 ~config:Config.Full_opt u
  in
  Alcotest.(check bool) "trivial mapping" true
    (Mat.equal ~tol:0. c.Compiler.mapping.Mapping.permuted u);
  Alcotest.(check (list string)) "trace still lints clean" []
    (List.map (fun d -> d.Diag.code) (Compiler.lint ~unitary:u c))

let test_disabled_validation () =
  let u = Unitary.haar_random (Rng.create 22) 6 in
  let compile disabled () =
    ignore
      (Compiler.compile ~disabled_passes:disabled ~rng:(Rng.create 42) ~device:device33
         ~config:Config.Full_opt u)
  in
  Alcotest.check_raises "unknown pass"
    (Invalid_argument "Pipeline.run: unknown pass fuse")
    (compile [ "fuse" ]);
  Alcotest.check_raises "mandatory pass"
    (Invalid_argument "Pipeline.run: pass decompose is mandatory and cannot be disabled")
    (compile [ "decompose" ])

(* ---------------------------------------------------------- registry *)

let test_registry_shape () =
  Alcotest.(check (list string)) "default order"
    [ "embed"; "map"; "decompose"; "dropout" ]
    (Pipeline.names Pipeline.default);
  let passes = Pipeline.passes Pipeline.default in
  let deps name =
    match Pipeline.find Pipeline.default name with
    | None -> Alcotest.fail ("missing pass " ^ name)
    | Some p -> Pipeline.dep_names passes p
  in
  Alcotest.(check (list string)) "embed deps" [] (deps "embed");
  Alcotest.(check (list string)) "map deps" [ "embed" ] (deps "map");
  Alcotest.(check (list string)) "decompose deps" [ "embed"; "map" ] (deps "decompose");
  Alcotest.(check (list string)) "dropout deps" [ "decompose"; "map" ] (deps "dropout")

let test_registry_validation () =
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Pipeline.make: duplicate pass name embed") (fun () ->
      ignore (Pipeline.make [ Pass.embed; Pass.embed ]));
  Alcotest.check_raises "dependency before producer"
    (Invalid_argument
       "Pipeline.make: pass map depends on an artifact no earlier pass produces")
    (fun () -> ignore (Pipeline.make [ Pass.map ]));
  Alcotest.check_raises "two producers of one artifact"
    (Invalid_argument "Pipeline.make: two passes produce the artifact of embed2")
    (fun () ->
       ignore (Pipeline.make [ Pass.embed; { Pass.embed with Pass.name = "embed2" } ]))

(* ------------------------------------------------------ BH09xx codes *)

let lint_trace trace =
  Lint.run { Lint.empty with Lint.pipeline = Some trace }

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.code) ds)

let full_registry =
  [ ("embed", []); ("map", [ "embed" ]); ("decompose", [ "embed"; "map" ]);
    ("dropout", [ "decompose"; "map" ]) ]

let executed_clean = [ "embed"; "map"; "decompose"; "dropout" ]

let test_bh0901_missing_or_repeated () =
  (* Drop a leaf pass (dropout) so the only violation is the missing
     run — dropping embed would also fire BH0903 downstream. *)
  let missing =
    lint_trace
      {
        Lint.registered = full_registry;
        executed = List.filter (fun n -> n <> "dropout") executed_clean;
      }
  in
  Alcotest.(check (list string)) "missing pass" [ "BH0901" ] (codes missing);
  let repeated =
    lint_trace
      { Lint.registered = full_registry; executed = "embed" :: executed_clean }
  in
  Alcotest.(check (list string)) "repeated pass" [ "BH0901" ] (codes repeated)

let test_bh0902_unregistered () =
  let ds =
    lint_trace
      { Lint.registered = full_registry; executed = executed_clean @ [ "fuse" ] }
  in
  Alcotest.(check (list string)) "unregistered pass" [ "BH0902" ] (codes ds)

let test_bh0903_out_of_order () =
  let ds =
    lint_trace
      {
        Lint.registered = full_registry;
        executed = [ "map"; "embed"; "decompose"; "dropout" ];
      }
  in
  Alcotest.(check (list string)) "map before embed" [ "BH0903" ] (codes ds)

let test_compile_trace_lints_clean () =
  let u = Unitary.haar_random (Rng.create 23) 6 in
  let c =
    Compiler.compile ~tau:0.99 ~rng:(Rng.create 42) ~device:device33 ~config:Config.Full_opt u
  in
  Alcotest.(check (list string)) "trace clean" [] (codes (lint_trace c.Compiler.trace));
  Alcotest.(check (list string)) "every pass ran, in registry order"
    (Pipeline.names Pipeline.default) c.Compiler.trace.Lint.executed

(* ------------------------------------------------ irregular coupling *)

let test_irregular_pattern_repeat () =
  (* compile_with_pattern on a genuinely non-lattice coupling graph (odd
     cycle lengths, a degree-5 hub, no grid structure), twice — plans
     and policies must be bit-identical and both compiles must lint
     clean. *)
  let n = 10 in
  let coupling =
    Coupling.of_edges ~n
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (7, 8); (8, 9);
        (0, 4); (4, 7); (4, 9); (2, 6); (1, 8) ]
  in
  let pattern = Emb.of_coupling_for_program coupling n in
  let u = Unitary.haar_random (Rng.create 24) n in
  let compile () =
    Compiler.compile_with_pattern ~tau:0.99 ~rng:(Rng.create 42) ~pattern
      ~config:Config.Full_opt u
  in
  let first = compile () in
  let again = compile () in
  check_compiled_eq "irregular first vs again" first again;
  Alcotest.(check bool) "dropout engaged" true (first.Compiler.policy <> None);
  let lint c = List.map (fun d -> d.Diag.code) (Compiler.lint ~unitary:u c) in
  Alcotest.(check (list string)) "first lints clean" [] (lint first);
  Alcotest.(check (list string)) "again lints clean" [] (lint again)

(* ---------------------------------------------------- hardware targets *)

module Target = Bose_hardware.Target

let compile_target ?(effort = Compiler.Standard) target u =
  Compiler.compile_for_target ~effort ~tau:0.99 ~rng:(Rng.create 42) ~target
    ~config:Config.Full_opt u

let test_target_zigzag_bit_exact () =
  (* --target zigzag IS today's device path: same lattice, same pass
     bodies, same RNG draw order — artifacts bit-identical to a plain
     compile on the equivalent device. *)
  List.iter
    (fun n ->
       let u = Unitary.haar_random (Rng.create (30 + n)) n in
       let device = Option.get (Target.device Target.zigzag n) in
       let via_target = compile_target Target.zigzag u in
       let via_device =
         Compiler.compile ~tau:0.99 ~rng:(Rng.create 42) ~device ~config:Config.Full_opt u
       in
       check_compiled_eq (Printf.sprintf "zigzag n=%d" n) via_target via_device)
    [ 6; 9; 12 ]

let test_graph_targets_compile_clean () =
  (* ISSUE acceptance: timebin-loop and orca-shallow compile N = 8..32
     with zero lint diagnostics (depth ceilings included, via the
     backend the target derives). Standard effort at N=8, Fast above to
     keep the suite quick — same ladder the CLI smoke uses. *)
  List.iter
    (fun (target : Target.t) ->
       List.iter
         (fun (n, effort) ->
            let u = Unitary.haar_random (Rng.create (40 + n)) n in
            let c = compile_target ~effort target u in
            Alcotest.(check (list string))
              (Printf.sprintf "%s n=%d clean" target.Target.name n)
              []
              (List.map (fun d -> d.Diag.code) (Compiler.lint ~unitary:u c));
            Alcotest.(check bool)
              (Printf.sprintf "%s n=%d within ceiling" target.Target.name n)
              true
              (match target.Target.max_depth n with
               | None -> true
               | Some limit ->
                 (Compiler.analyze c).Bose_flow.Flow.layers.Bose_flow.Flow.depth <= limit))
         [ (8, Compiler.Standard); (16, Compiler.Fast); (32, Compiler.Fast) ])
    [ Target.timebin_loop; Target.orca_shallow ]

let () =
  Alcotest.run "pipeline"
    [
      ( "bit-exact",
        [
          Alcotest.test_case "pipeline vs legacy monolith" `Quick test_bit_exact_vs_legacy;
          Alcotest.test_case "plan binary codec bit-exact" `Quick
            test_plan_binary_roundtrip_bit_exact;
        ] );
      ( "batch",
        [ Alcotest.test_case "duplicate jobs identical" `Quick test_compile_batch_duplicates ] );
      ( "disable",
        [
          Alcotest.test_case "dropout disabled" `Quick test_disabled_dropout;
          Alcotest.test_case "map disabled" `Quick test_disabled_map;
          Alcotest.test_case "validation" `Quick test_disabled_validation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "default shape" `Quick test_registry_shape;
          Alcotest.test_case "make validation" `Quick test_registry_validation;
        ] );
      ( "lint",
        [
          Alcotest.test_case "BH0901 missing/repeated" `Quick test_bh0901_missing_or_repeated;
          Alcotest.test_case "BH0902 unregistered" `Quick test_bh0902_unregistered;
          Alcotest.test_case "BH0903 out of order" `Quick test_bh0903_out_of_order;
          Alcotest.test_case "compile traces lint clean" `Quick
            test_compile_trace_lints_clean;
        ] );
      ( "irregular",
        [
          Alcotest.test_case "non-lattice coupling, repeat identical" `Quick
            test_irregular_pattern_repeat;
        ] );
      ( "target",
        [
          Alcotest.test_case "zigzag bit-exact vs device" `Quick
            test_target_zigzag_bit_exact;
          Alcotest.test_case "graph targets compile clean N=8..32" `Quick
            test_graph_targets_compile_clean;
        ] );
    ]
