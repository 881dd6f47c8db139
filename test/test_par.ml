(* Domain-pool torture tests and parallel-determinism pins: the pool
   schedules but never draws randomness, so every parallel entry point
   (batch compile, sampler chains) must produce output bit-identical to
   its sequential run for a fixed seed. *)

module Pool = Bose_par.Pool
module Rng = Bose_util.Rng
module Obs = Bose_obs.Obs
module Cx = Bose_linalg.Cx
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Mat = Bose_linalg.Mat
module Plan = Bose_decomp.Plan
module Clements = Bose_decomp.Clements
module Eliminate = Bose_decomp.Eliminate
module Gaussian = Bose_gbs.Gaussian
module Sampler = Bose_gbs.Sampler
module Boson_sampling = Bose_gbs.Boson_sampling
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
open Bosehedral

let device33 = Lattice.create ~rows:3 ~cols:3

(* ------------------------------------------------------------- pool *)

let test_run_covers_all () =
  Pool.with_pool ~domains:3 (fun pool ->
      (* More tasks than domains; every task runs exactly once. The
         pool is reusable, so exercise two batches back to back. *)
      for _round = 1 to 2 do
        let hits = Array.make 100 0 in
        Pool.run pool ~tasks:100 (fun i -> hits.(i) <- hits.(i) + 1);
        Alcotest.(check bool) "each task ran once" true (Array.for_all (( = ) 1) hits)
      done;
      Alcotest.(check int) "domains" 3 (Pool.domains pool))

let test_zero_and_empty () =
  Pool.with_pool ~domains:2 (fun pool ->
      Pool.run pool ~tasks:0 (fun _ -> Alcotest.fail "no task should run");
      Alcotest.(check (array int)) "empty map" [||] (Pool.map pool (fun x -> x) [||]);
      Pool.chunked_iter pool ~chunks:4 ~n:0 (fun ~chunk:_ ~lo:_ ~hi:_ ->
          Alcotest.fail "no chunk should run"))

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 50 (fun i -> i) in
      Alcotest.(check (array int)) "input order" (Array.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_chunked_iter_partition () =
  Pool.with_pool ~domains:3 (fun pool ->
      (* Slices must cover [0, n) disjointly and contiguously, and the
         boundaries must depend only on (chunks, n). Workers only record
         what they saw; every check runs on the main domain, since
         Alcotest's formatter is not safe to share across domains. *)
      List.iter
        (fun (chunks, n) ->
           let seen = Array.make n 0 in
           let count = ref 0 and empty = ref 0 in
           let mu = Mutex.create () in
           Pool.chunked_iter pool ~chunks ~n (fun ~chunk:_ ~lo ~hi ->
               Mutex.lock mu;
               incr count;
               if lo >= hi then incr empty;
               Mutex.unlock mu;
               for i = lo to hi - 1 do
                 seen.(i) <- seen.(i) + 1
               done);
           Alcotest.(check int) "no empty slice" 0 !empty;
           Alcotest.(check bool) "covers every index once" true
             (Array.for_all (( = ) 1) seen);
           Alcotest.(check bool) "at most chunks slices" true (!count <= chunks))
        [ (4, 10); (8, 3); (1, 7); (3, 3) ])

let test_exception_propagation () =
  Pool.with_pool ~domains:3 (fun pool ->
      let ran = Array.make 10 false in
      (match
         Pool.run pool ~tasks:10 (fun i ->
             ran.(i) <- true;
             if i = 3 || i = 7 then failwith (Printf.sprintf "task %d" i))
       with
       | () -> Alcotest.fail "expected the task failure to re-raise"
       | exception Failure msg ->
         Alcotest.(check string) "lowest-index failure wins" "task 3" msg);
      Alcotest.(check bool) "remaining tasks still ran" true (Array.for_all Fun.id ran);
      (* The pool survives a failed batch. *)
      let ok = Array.make 5 false in
      Pool.run pool ~tasks:5 (fun i -> ok.(i) <- true);
      Alcotest.(check bool) "pool reusable after failure" true (Array.for_all Fun.id ok))

let test_nested_run_rejected () =
  Pool.with_pool ~domains:3 (fun pool ->
      match Pool.run pool ~tasks:4 (fun _ -> Pool.run pool ~tasks:1 (fun _ -> ())) with
      | () -> Alcotest.fail "expected Invalid_argument for nested run"
      | exception Invalid_argument _ -> ())

let test_shutdown_and_validation () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0));
  let pool = Pool.create ~domains:2 in
  (match Pool.run pool ~tasks:(-1) (fun _ -> ()) with
   | () -> Alcotest.fail "expected Invalid_argument for negative tasks"
   | exception Invalid_argument _ -> ());
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.run pool ~tasks:1 (fun _ -> ()) with
   | () -> Alcotest.fail "expected Invalid_argument after shutdown"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "with_pool returns" 42
    (Pool.with_pool ~domains:1 (fun _ -> 42))

(* -------------------------------------------------------- telemetry *)

let c_local = Obs.Counter.make "test.par_counter"

let test_local_sink_merge () =
  Obs.reset ();
  Obs.enable ();
  let s1 = Obs.Local.create () and s2 = Obs.Local.create () in
  Obs.Local.install s1;
  Alcotest.(check bool) "installed" true (Obs.Local.installed ());
  Obs.Counter.incr c_local;
  Obs.Counter.incr ~by:4 c_local;
  Obs.Local.uninstall ();
  Obs.Local.install s2;
  Obs.Counter.incr ~by:2 c_local;
  Obs.Local.uninstall ();
  Alcotest.(check int) "global untouched before merge" 0 (Obs.Counter.value c_local);
  Obs.Local.merge s1;
  Obs.Local.merge s2;
  Alcotest.(check int) "counters add across sinks" 7 (Obs.Counter.value c_local);
  Obs.disable ();
  Obs.reset ()

let test_pool_gauges () =
  Obs.reset ();
  Obs.enable ();
  Pool.with_pool ~domains:2 (fun pool -> Pool.run pool ~tasks:5 (fun _ -> ()));
  let r = Obs.Report.capture () in
  Alcotest.(check (option (float 0.))) "par.domains" (Some 2.)
    (Obs.Report.gauge r "par.domains");
  Alcotest.(check (option (float 0.))) "par.tasks" (Some 5.)
    (Obs.Report.gauge r "par.tasks");
  Alcotest.(check bool) "par.steal_idle_ns recorded" true
    (Obs.Report.gauge r "par.steal_idle_ns" <> None);
  Obs.disable ();
  Obs.reset ()

(* ------------------------------------------------------ determinism *)

let batch_jobs () =
  let u k = Unitary.haar_random (Rng.create (100 + k)) 6 in
  [
    (u 0, Config.Full_opt);
    (u 1, Config.Baseline);
    (u 2, Config.Decomp_opt);
    (u 3, Config.Full_opt);
    (u 0, Config.Full_opt);
    (u 4, Config.Rot_cut);
    (u 5, Config.Full_opt);
    (u 6, Config.Full_opt);
  ]

let compile_batch_with ~jobs =
  Compiler.compile_batch ~tau:0.99 ~jobs ~rng:(Rng.create 42) ~device:device33
    (batch_jobs ())

(* Plans and policies (the semantic output) must be bit-identical at
   every jobs value; only timings may differ. *)
let batch_key results =
  List.map (fun (c : Compiler.t) -> (Plan.to_string c.Compiler.plan, c.Compiler.policy)) results

let test_compile_batch_determinism () =
  let r1 = batch_key (compile_batch_with ~jobs:1) in
  let r2 = batch_key (compile_batch_with ~jobs:2) in
  let r4 = batch_key (compile_batch_with ~jobs:4) in
  Alcotest.(check bool) "jobs 2 = jobs 1" true (r2 = r1);
  Alcotest.(check bool) "jobs 4 = jobs 1" true (r4 = r1);
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Compiler.compile_batch: jobs must be >= 1") (fun () ->
      ignore (compile_batch_with ~jobs:0))

let gbs_state () =
  let u = Unitary.haar_random (Rng.create 5) 4 in
  let s = Gaussian.vacuum 4 in
  for i = 0 to 3 do
    Gaussian.squeeze s i (Cx.re 0.35)
  done;
  Gaussian.interferometer s u;
  s

let test_sampling_determinism () =
  let sampler = Sampler.of_state ~max_photons:4 (gbs_state ()) in
  let seq = Sampler.draw_chains ~chains:8 (Rng.create 7) sampler 200 in
  Alcotest.(check int) "shot count" 200 (List.length seq);
  List.iter
    (fun domains ->
       Pool.with_pool ~domains (fun pool ->
           Alcotest.(check bool)
             (Printf.sprintf "draw_chains pool %d = sequential" domains)
             true
             (Sampler.draw_chains ~chains:8 ~pool (Rng.create 7) sampler 200 = seq)))
    [ 1; 2; 4 ]

let test_chain_rule_determinism () =
  let seq = Sampler.chain_rule_chains ~chains:6 (Rng.create 9) (gbs_state ()) 48 in
  Alcotest.(check int) "shot count" 48 (List.length seq);
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "chain_rule_chains pool = sequential" true
        (Sampler.chain_rule_chains ~chains:6 ~pool (Rng.create 9) (gbs_state ()) 48 = seq))

let test_boson_sampling_determinism () =
  let u = Unitary.haar_random (Rng.create 11) 4 in
  let input = Boson_sampling.single_photons ~modes:4 ~photons:2 in
  let seq = Boson_sampling.sample ~chains:8 (Rng.create 3) u ~input 100 in
  Alcotest.(check int) "shot count" 100 (List.length seq);
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "sample pool = sequential" true
        (Boson_sampling.sample ~chains:8 ~pool (Rng.create 3) u ~input 100 = seq))

(* ------------------------------------------------------ decomposition *)

(* Correctness pinned the mathematical way: a decomposition must
   replay back to its input. *)
let test_decompose_reconstructs () =
  let u = Unitary.haar_random (Rng.create 78) 133 in
  Alcotest.(check bool) "plan replays to the input" true
    (Mat.equal ~tol:1e-9 (Plan.reconstruct (Eliminate.decompose_baseline u)) u);
  Alcotest.(check bool) "clements replays to the input" true
    (Mat.equal ~tol:1e-9 (Clements.reconstruct (Clements.decompose u)) u)

(* ------------------------------------------------------------- lint *)

let test_bh1001_shared_stream () =
  let r = Rng.create 1 in
  let streams = Rng.split r 2 in
  let diags =
    Lint.run
      {
        Lint.empty with
        Lint.rngs =
          [ ("task0", r); ("task1", r); ("task2", streams.(0)); ("task3", streams.(1)) ];
      }
  in
  Alcotest.(check (list string)) "one shared pair flagged" [ "BH1001" ]
    (List.map (fun d -> d.Diag.code) diags);
  Alcotest.(check bool) "shared-stream diagnostic is an error" true
    (List.for_all Diag.is_error diags);
  let clean =
    Lint.run
      { Lint.empty with Lint.rngs = [ ("task0", streams.(0)); ("task1", streams.(1)) ] }
  in
  Alcotest.(check (list string)) "split streams lint clean" []
    (List.map (fun d -> d.Diag.code) clean)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "run covers all tasks" `Quick test_run_covers_all;
          Alcotest.test_case "zero tasks" `Quick test_zero_and_empty;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "chunked partition" `Quick test_chunked_iter_partition;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "shutdown and validation" `Quick test_shutdown_and_validation;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "local sink merge" `Quick test_local_sink_merge;
          Alcotest.test_case "pool gauges" `Quick test_pool_gauges;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "compile_batch jobs 1/2/4" `Quick
            test_compile_batch_determinism;
          Alcotest.test_case "draw_chains pool sizes" `Quick test_sampling_determinism;
          Alcotest.test_case "chain_rule_chains pool" `Quick test_chain_rule_determinism;
          Alcotest.test_case "boson sampling pool" `Quick
            test_boson_sampling_determinism;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "decomposition replays to its input" `Quick
            test_decompose_reconstructs;
        ] );
      ( "lint",
        [ Alcotest.test_case "BH1001 shared rng stream" `Quick test_bh1001_shared_stream ] );
    ]
