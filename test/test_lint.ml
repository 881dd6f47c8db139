(* Tests for the bose_lint static-verification engine: a clean compile
   produces zero diagnostics at several sizes, every corruption class
   fires its catalogued code (docs/DIAGNOSTICS.md), parse failures come
   back as line-located diagnostics instead of exceptions, view
   aliasing is detected, and the settings (disable / werror) behave. *)

module Rng = Bose_util.Rng
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Givens = Bose_linalg.Givens
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Plan = Bose_decomp.Plan
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
open Bosehedral

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code code ds = List.mem code (codes ds)

let check_code name code ds =
  Alcotest.(check bool) (name ^ ": fires " ^ code) true (has_code code ds)

let compile_n n =
  let rng = Rng.create (1000 + n) in
  let rows = if n <= 4 then 2 else if n <= 8 then 2 else 4 in
  let device = Lattice.create ~rows ~cols:(n / rows) in
  let u = Unitary.haar_random rng n in
  (Compiler.compile ~rng ~device ~config:Config.Full_opt ~tau:0.999 u, u)

(* --- positive: clean compiles lint clean ------------------------- *)

let test_clean_compile () =
  List.iter
    (fun n ->
       let compiled, u = compile_n n in
       let ds = Compiler.lint ~unitary:u compiled in
       Alcotest.(check (list string))
         (Printf.sprintf "N=%d: no diagnostics" n)
         [] (codes ds);
       Alcotest.(check bool)
         (Printf.sprintf "N=%d: verify ok" n)
         true
         (Compiler.verify compiled = Ok ()))
    [ 4; 8; 16 ]

let test_empty_subject () =
  Alcotest.(check (list string)) "empty subject is clean" [] (codes (Lint.run Lint.empty))

let test_summary_wording () =
  Alcotest.(check string) "zero summary" "0 errors, 0 warnings, 0 info" (Diag.summary []);
  let ds = [ Diag.error ~code:"BH0401" "x"; Diag.warning ~code:"BH0407" "y" ] in
  Alcotest.(check string) "singular forms" "1 error, 1 warning, 0 info" (Diag.summary ds)

(* --- unitary health ---------------------------------------------- *)

let test_unitary_health () =
  let not_square = Mat.create 3 4 in
  check_code "non-square" "BH0101"
    (Lint.run { Lint.empty with Lint.unitary = Some not_square });
  let u = Unitary.haar_random (Rng.create 7) 5 in
  Mat.set u 2 3 (Cx.make Float.nan 0.);
  let ds = Lint.run { Lint.empty with Lint.unitary = Some u } in
  check_code "NaN entry" "BH0102" ds;
  Alcotest.(check bool) "NaN is an error" true (List.exists Diag.is_error ds);
  let not_unitary = Mat.identity 4 in
  Mat.set not_unitary 1 1 (Cx.make 3. 0.);
  check_code "unitarity residual" "BH0103"
    (Lint.run { Lint.empty with Lint.unitary = Some not_unitary })

(* --- permutations and mapping ------------------------------------ *)

let test_non_bijective_perm () =
  let ds = Lint.run { Lint.empty with Lint.perms = [ ("rowp", [| 0; 0; 2 |]) ] } in
  check_code "duplicate image" "BH0302" ds;
  let ds = Lint.run { Lint.empty with Lint.perms = [ ("rowp", [| 0; 5; 1 |]) ] } in
  check_code "out of range" "BH0302" ds;
  let ds = Lint.run { Lint.empty with Lint.perms = [ ("ok", [| 2; 0; 1 |]) ] } in
  Alcotest.(check (list string)) "valid perm is clean" [] (codes ds)

let test_mapping_size_mismatch () =
  let m =
    {
      Mapping.permuted = Mat.identity 3;
      row_perm = Perm.identity 2;
      col_perm = Perm.identity 3;
      indicator_k = 1;
      small_angles = 0;
    }
  in
  check_code "perm/unitary size" "BH0301"
    (Lint.run { Lint.empty with Lint.mapping = Some m })

let test_mapping_recovery_mismatch () =
  (* A mapping whose permuted matrix is NOT the permutation of the
     claimed program unitary: recovery cannot be bit-exact. *)
  let u = Unitary.haar_random (Rng.create 11) 4 in
  let m = Mapping.trivial (Unitary.haar_random (Rng.create 12) 4) in
  check_code "recovery not bit-exact" "BH0304"
    (Lint.run { Lint.empty with Lint.unitary = Some u; mapping = Some m })

(* --- plan corruption --------------------------------------------- *)

let test_corrupted_plan_step () =
  let compiled, _ = compile_n 4 in
  let plan = compiled.Compiler.plan in
  (* Swap cos/sin of the first rotation: still normalized (so no
     structural complaint), but the replay no longer matches. *)
  let elements = Array.copy plan.Plan.elements in
  let e = elements.(0) in
  let r = e.Plan.rotation in
  elements.(0) <- { e with Plan.rotation = { r with Givens.c = r.Givens.s; s = r.Givens.c } };
  let corrupted = { plan with Plan.elements = elements } in
  let subject =
    {
      Lint.empty with
      Lint.plan = Some corrupted;
      reference = Some compiled.Compiler.mapping.Mapping.permuted;
    }
  in
  check_code "replay residual" "BH0401" (Lint.run subject);
  (* Out-of-range qumode pair: structural, and it must gate the replay
     checks (no BH0401 alongside, and no kernel assertion tripped). *)
  let elements = Array.copy plan.Plan.elements in
  let e = elements.(0) in
  elements.(0) <- { e with Plan.rotation = { e.Plan.rotation with Givens.m = 99 } } ;
  let broken = { plan with Plan.elements = elements } in
  let ds =
    Lint.run
      {
        Lint.empty with
        Lint.plan = Some broken;
        reference = Some compiled.Compiler.mapping.Mapping.permuted;
      }
  in
  check_code "invalid qumode pair" "BH0403" ds;
  Alcotest.(check bool) "structural gates replay" false (has_code "BH0401" ds)

let test_dead_rotation_warns () =
  let compiled, _ = compile_n 4 in
  let plan = compiled.Compiler.plan in
  let elements = Array.copy plan.Plan.elements in
  let e = elements.(0) in
  elements.(0) <-
    { e with Plan.rotation = { e.Plan.rotation with Givens.c = 1.; s = 0.; ere = 1.; eim = 0. } };
  let ds = Lint.run { Lint.empty with Lint.plan = Some { plan with Plan.elements = elements } } in
  let dead = List.filter (fun (d : Diag.t) -> d.Diag.code = "BH0407") ds in
  Alcotest.(check int) "one dead rotation" 1 (List.length dead);
  Alcotest.(check bool) "it is a warning, not an error" false
    (List.exists Diag.is_error dead);
  (* --werror promotes it. *)
  let settings = { Lint.default_settings with Lint.werror = true } in
  let ds = Lint.run ~settings { Lint.empty with Lint.plan = Some { plan with Plan.elements = elements } } in
  Alcotest.(check bool) "werror promotes to error" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "BH0407" && Diag.is_error d) ds)

let test_disable_code () =
  let ds =
    Lint.run
      ~settings:{ Lint.default_settings with Lint.disabled_codes = [ "BH0302" ] }
      { Lint.empty with Lint.perms = [ ("p", [| 0; 0 |]) ] }
  in
  Alcotest.(check (list string)) "disabled code is dropped" [] (codes ds);
  let ds =
    Lint.run
      ~settings:{ Lint.default_settings with Lint.disabled_passes = [ "perms" ] }
      { Lint.empty with Lint.perms = [ ("p", [| 0; 0 |]) ] }
  in
  Alcotest.(check (list string)) "disabled pass is skipped" [] (codes ds)

(* --- dropout policy ---------------------------------------------- *)

let test_policy_below_tau () =
  let compiled, _ = compile_n 8 in
  let plan = compiled.Compiler.plan in
  let policy =
    match compiled.Compiler.policy with
    | Some p -> p
    | None -> Alcotest.fail "full-opt compile must carry a policy"
  in
  (* The real policy with a doctored fidelity claim: below its own tau. *)
  let liar = { policy with Dropout.expected_fidelity = policy.Dropout.tau /. 2. } in
  check_code "fidelity below tau" "BH0503"
    (Lint.run { Lint.empty with Lint.plan = Some plan; policy = Some liar });
  (* The honest policy held to an impossible min_fidelity. *)
  check_code "min_fidelity raises the bar" "BH0503"
    (Lint.run
       {
         Lint.empty with
         Lint.plan = Some plan;
         policy = Some policy;
         min_fidelity = Some 1.5;
       });
  (* NaN weight. *)
  let weights = Array.copy policy.Dropout.weights in
  weights.(0) <- Float.nan;
  check_code "NaN weight" "BH0502"
    (Lint.run
       { Lint.empty with Lint.plan = Some plan; policy = Some { policy with Dropout.weights } })

(* --- view aliasing ----------------------------------------------- *)

let test_views_overlap () =
  let base = Mat.identity 6 in
  let other = Mat.identity 6 in
  let v1 = Mat.view base ~rows:[| 0; 1; 2 |] ~cols:[| 0; 1 |] in
  let v2 = Mat.view base ~rows:[| 2; 3 |] ~cols:[| 1; 4 |] in
  let v3 = Mat.view base ~rows:[| 4; 5 |] ~cols:[| 0; 1 |] in
  let v4 = Mat.view other ~rows:[| 0; 1; 2 |] ~cols:[| 0; 1 |] in
  Alcotest.(check bool) "shared rows+cols overlap" true (Mat.views_overlap v1 v2);
  Alcotest.(check bool) "disjoint rows do not" false (Mat.views_overlap v1 v3);
  Alcotest.(check bool) "different parents do not" false (Mat.views_overlap v1 v4);
  let ds =
    Lint.run { Lint.empty with Lint.views = [ ("dst", v1); ("src", v2); ("far", v3) ] }
  in
  let overlaps = List.filter (fun (d : Diag.t) -> d.Diag.code = "BH0701") ds in
  Alcotest.(check int) "exactly the one overlapping pair" 1 (List.length overlaps)

(* --- loaders: malformed input as diagnostics --------------------- *)

let with_temp_file content f =
  let path = Filename.temp_file "lint_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out path in
       output_string oc content;
       close_out oc;
       f path)

let test_load_plan_diagnostics () =
  with_temp_file "plan 4 1\nr 0 0 1 bogus 0x0p0 0x1p0 0x0p0\n" (fun path ->
      match Lint.load_plan path with
      | Ok _ -> Alcotest.fail "corrupt plan must not load"
      | Error d ->
        Alcotest.(check string) "code" "BH0801" d.Diag.code;
        Alcotest.(check bool) "line location" true (d.Diag.location = Diag.Line 2));
  match Lint.load_plan "/nonexistent/lint.plan" with
  | Ok _ -> Alcotest.fail "missing file must not load"
  | Error d -> Alcotest.(check string) "missing file code" "BH0801" d.Diag.code

let test_load_unitary_diagnostics () =
  with_temp_file "unitary 2\ne 0x1p0 0x0p0\ne nope 0x0p0\n" (fun path ->
      match Lint.load_unitary path with
      | Ok _ -> Alcotest.fail "corrupt unitary must not load"
      | Error d ->
        Alcotest.(check string) "code" "BH0802" d.Diag.code;
        Alcotest.(check bool) "line location" true (d.Diag.location = Diag.Line 3))

let test_plan_save_load_roundtrip () =
  let compiled, _ = compile_n 8 in
  let plan = compiled.Compiler.plan in
  match Plan.of_string (Plan.to_string plan) with
  | Error (msg, line) -> Alcotest.fail (Printf.sprintf "line %d: %s" line msg)
  | Ok plan' -> Alcotest.(check bool) "bit-exact round-trip" true (plan = plan')

(* --- hardware targets (BH13xx) ----------------------------------- *)

module Target = Bose_hardware.Target
module Flow = Bose_flow.Flow

let test_bh1301_unknown_target () =
  let ds = Lint.run { Lint.empty with Lint.target_name = Some "nokia-3310" } in
  check_code "unknown target" "BH1301" ds;
  Alcotest.(check int) "it is an error" 1 (Lint.errors ds);
  (* A registered name alone is clean — nothing else to check. *)
  Alcotest.(check (list string)) "known target clean" []
    (codes (Lint.run { Lint.empty with Lint.target_name = Some "zigzag" }))

let test_bh1302_provenance_mismatch () =
  let compiled, _ = compile_n 8 in
  let subject compiled_target =
    {
      Lint.empty with
      Lint.plan = Some compiled.Compiler.plan;
      target_name = Some "zigzag";
      compiled_target;
    }
  in
  check_code "cross-target plan" "BH1302" (Lint.run (subject (Some "orca-shallow")));
  Alcotest.(check (list string)) "matching provenance clean" []
    (codes (Lint.run (subject (Some "zigzag"))));
  Alcotest.(check (list string)) "absent provenance clean" []
    (codes (Lint.run (subject None)))

(* A registered-for-the-test target with a ceiling no real plan can
   meet: depth 1 regardless of size. Registration is process-global,
   which is fine — the name is unique to this suite. *)
let tiny_depth =
  let t =
    { Target.zigzag with Target.name = "test-tiny-depth"; max_depth = (fun _ -> Some 1) }
  in
  Target.register t;
  t

let test_bh1303_depth_ceiling () =
  let compiled, _ = compile_n 8 in
  let subject =
    {
      Lint.empty with
      Lint.plan = Some compiled.Compiler.plan;
      target_name = Some tiny_depth.Target.name;
    }
  in
  check_code "over ceiling" "BH1303" (Lint.run subject);
  (* With a flow backend attached, depth gating belongs to BH1102 —
     BH1303 must stay silent instead of double-reporting. *)
  let with_backend = { subject with Lint.backend = Some (Flow.backend ()) } in
  Alcotest.(check bool) "backend silences BH1303" false
    (has_code "BH1303" (Lint.run with_backend));
  (* zigzag has no ceiling: same plan, no diagnostic. *)
  Alcotest.(check (list string)) "unbounded target clean" []
    (codes (Lint.run { subject with Lint.target_name = Some "zigzag" }))

(* --- rendering --------------------------------------------------- *)

let test_json_shape () =
  let ds =
    [
      Diag.error ~code:"BH0401" ~loc:(Diag.Step 3) ~hint:"resync" "replay mismatch";
      Diag.warning ~code:"BH0407" "dead \"rotation\"";
    ]
  in
  let json = Bose_util.Json.to_string (Diag.to_json ds) in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("json contains " ^ needle) true (contains needle))
    [
      "\"version\":1"; "\"BH0401\""; "\"step\""; "\"resync\""; "\"errors\":1";
      "\"dead \\\"rotation\\\"\"";
    ]

let () =
  Alcotest.run "lint"
    [
      ( "positive",
        [
          Alcotest.test_case "clean compiles lint clean (N=4,8,16)" `Slow
            test_clean_compile;
          Alcotest.test_case "empty subject" `Quick test_empty_subject;
          Alcotest.test_case "summary wording" `Quick test_summary_wording;
        ] );
      ( "unitary",
        [ Alcotest.test_case "health checks" `Quick test_unitary_health ] );
      ( "mapping",
        [
          Alcotest.test_case "non-bijective permutation" `Quick test_non_bijective_perm;
          Alcotest.test_case "size mismatch" `Quick test_mapping_size_mismatch;
          Alcotest.test_case "recovery mismatch" `Quick test_mapping_recovery_mismatch;
        ] );
      ( "plan",
        [
          Alcotest.test_case "corrupted step" `Quick test_corrupted_plan_step;
          Alcotest.test_case "dead rotation warns; werror promotes" `Quick
            test_dead_rotation_warns;
          Alcotest.test_case "disable code and pass" `Quick test_disable_code;
          Alcotest.test_case "save/load round-trip" `Quick test_plan_save_load_roundtrip;
        ] );
      ( "policy", [ Alcotest.test_case "fidelity and weights" `Quick test_policy_below_tau ] );
      ( "aliasing", [ Alcotest.test_case "views_overlap" `Quick test_views_overlap ] );
      ( "loaders",
        [
          Alcotest.test_case "plan diagnostics" `Quick test_load_plan_diagnostics;
          Alcotest.test_case "unitary diagnostics" `Quick test_load_unitary_diagnostics;
        ] );
      ( "target",
        [
          Alcotest.test_case "BH1301 unknown target" `Quick test_bh1301_unknown_target;
          Alcotest.test_case "BH1302 provenance mismatch" `Quick
            test_bh1302_provenance_mismatch;
          Alcotest.test_case "BH1303 depth ceiling" `Quick test_bh1303_depth_ceiling;
        ] );
      ( "render", [ Alcotest.test_case "json shape" `Quick test_json_shape ] );
    ]
