(* Bechamel micro-benchmarks of the compiler kernels. *)

module Rng = Bose_util.Rng
module Json = Bose_util.Json
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary
module Givens = Bose_linalg.Givens
module Lattice = Bose_hardware.Lattice
module Embedding = Bose_hardware.Embedding
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Clements = Bose_decomp.Clements
module Mapping = Bose_mapping.Mapping
module Gaussian = Bose_gbs.Gaussian
module Sampler = Bose_gbs.Sampler
module Pool = Bose_par.Pool
module Obs = Bose_obs.Obs
open Bechamel
open Toolkit

(* Row gauges: Telemetry.row captures the metrics window per row, so
   these land in each row's report in BENCH_TELEMETRY.json where
   bench/check_regression.ml compares them against bench_floors.json. *)
let g_cold_us = Obs.Gauge.make "bench.cold_us"
let g_warm_us = Obs.Gauge.make "bench.warm_us"
let g_warm_speedup = Obs.Gauge.make "bench.warm_speedup"
let g_wall_s = Obs.Gauge.make "bench.wall_s"
let g_par_speedup = Obs.Gauge.make "bench.parallel_speedup"
let g_serve_rps = Obs.Gauge.make "bench.serve_rps"
let g_serve_line_ms = Obs.Gauge.make "bench.serve_line_ms"
let g_text_load_us = Obs.Gauge.make "bench.text_load_us"
let g_bin_load_us = Obs.Gauge.make "bench.binary_load_us"
let g_bin_speedup = Obs.Gauge.make "bench.binary_load_speedup"
let g_rot_melems = Obs.Gauge.make "bench.rot_melems_s"
let g_intra_speedup = Obs.Gauge.make "bench.intra_speedup"
let g_analyze_per_s = Obs.Gauge.make "bench.analyze_per_s"
let g_target_rotations = Obs.Gauge.make "bench.target_rotations"
let g_target_kept = Obs.Gauge.make "bench.target_kept"
let g_target_fidelity = Obs.Gauge.make "bench.target_fidelity"
let g_target_depth = Obs.Gauge.make "bench.target_depth"
let g_call_us = Obs.Gauge.make "bench.call_us"

(* Boxed get/set reference implementations: what the flat kernels are
   measured against, and what they replaced. *)
let naive_mul a b =
  let open Cx in
  let dst = Mat.create (Mat.rows a) (Mat.cols b) in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols b - 1 do
      let acc = ref Cx.zero in
      for k = 0 to Mat.cols a - 1 do
        acc := !acc +: (Mat.get a i k *: Mat.get b k j)
      done;
      Mat.set dst i j !acc
    done
  done;
  dst

let naive_rot_cols u ~m ~n ~theta ~phi =
  let open Cx in
  let c = Cx.re (cos theta) and s = Cx.re (sin theta) in
  let em = Cx.exp_i phi in
  for i = 0 to Mat.rows u - 1 do
    let um = Mat.get u i m and un = Mat.get u i n in
    Mat.set u i m ((em *: c *: um) +: (em *: s *: un));
    Mat.set u i n (Cx.neg s *: um +: (c *: un))
  done

let benchmarks () =
  let n = 24 in
  let u = Unitary.haar_random (Rng.create 1) n in
  let device = Lattice.create ~rows:6 ~cols:6 in
  let pattern = Embedding.for_program device n in
  let plan = Eliminate.decompose pattern u in
  let a64 = Unitary.haar_random (Rng.create 3) 64 in
  let b64 = Unitary.haar_random (Rng.create 4) 64 in
  let dst64 = Mat.create 64 64 in
  let u32 = Unitary.haar_random (Rng.create 5) 32 in
  let rot32 = Mat.copy u32 in
  let ws = Mat.workspace () in
  [
    Test.make ~name:"decompose/chain-24" (Staged.stage (fun () ->
        ignore (Eliminate.decompose_baseline u)));
    Test.make ~name:"decompose/tree-24" (Staged.stage (fun () ->
        ignore (Eliminate.decompose pattern u)));
    Test.make ~name:"reconstruct-24" (Staged.stage (fun () ->
        ignore (Plan.reconstruct plan)));
    Test.make ~name:"fidelity-24" (Staged.stage (fun () ->
        ignore (Plan.fidelity plan u)));
    Test.make ~name:"mapping-optimize-24" (Staged.stage (fun () ->
        ignore (Mapping.optimize ~candidate_ks:[ 12 ] pattern u)));
    Test.make ~name:"haar-random-24" (Staged.stage (fun () ->
        ignore (Unitary.haar_random (Rng.create 2) n)));
    (* Flat-kernel rows, each paired with its boxed get/set reference so
       the table shows the layout speedup directly. *)
    Test.make ~name:"gemm-64" (Staged.stage (fun () -> Mat.gemm ~dst:dst64 a64 b64));
    Test.make ~name:"gemm-64-reference" (Staged.stage (fun () ->
        ignore (naive_mul a64 b64)));
    Test.make ~name:"givens-rot-32" (Staged.stage (fun () ->
        Mat.rot_cols_t rot32 ~m:7 ~n:23 ~theta:0.3 ~phi:1.1));
    Test.make ~name:"givens-rot-32-reference" (Staged.stage (fun () ->
        naive_rot_cols rot32 ~m:7 ~n:23 ~theta:0.3 ~phi:1.1));
    Test.make ~name:"clements-32" (Staged.stage (fun () ->
        ignore (Clements.decompose u32)));
    Test.make ~name:"clements-32-ws" (Staged.stage (fun () ->
        ignore (Clements.decompose ~ws u32)));
  ]

(* Warm-request speedup: send one compile request to a no-store
   [Serve.t] cold, then several times warm under other seeds — each a
   memory-tier hit that parses the unitary text, keys the request and
   renders the stored answer — and report cold/warm wall-clock. *)
let cache_recompile_row ~n ~rows ~cols =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "compile-cache-%d" n)
  @@ fun () ->
  let text = Unitary.to_string (Unitary.haar_random (Rng.create 6) n) in
  let state = Bose_serve.Serve.create () in
  let compile ~seed ~expect =
    let reply =
      Bose_serve.Serve.handle_line state
        (Printf.sprintf
           {|{"op":"compile","params":{"unitary":%s,"rows":%d,"cols":%d,"tau":0.99,"seed":%d}}|}
           (Json.to_string (Json.Str text)) rows cols seed)
    in
    let cached = Result.to_option (Json.parse reply) |> Fun.flip Option.bind (Json.mem "result") in
    if Option.bind cached (Json.mem "cached") <> Some (Json.Str expect) then
      failwith ("compile-cache: unexpected reply " ^ reply)
  in
  let t0 = Unix.gettimeofday () in
  compile ~seed:7 ~expect:"none";
  let cold_s = Unix.gettimeofday () -. t0 in
  let warm_runs = 5 in
  let t1 = Unix.gettimeofday () in
  for k = 1 to warm_runs do
    compile ~seed:(7 + k) ~expect:"mem"
  done;
  let warm_s = (Unix.gettimeofday () -. t1) /. float_of_int warm_runs in
  let speedup = if warm_s > 0. then cold_s /. warm_s else Float.infinity in
  Obs.Gauge.set g_cold_us (1e6 *. cold_s);
  Obs.Gauge.set g_warm_us (1e6 *. warm_s);
  Obs.Gauge.set g_warm_speedup speedup;
  Printf.printf "compile-cache-%-14d cold %8.1f us, warm %8.1f us, %8.2fx speedup\n" n
    (1e6 *. cold_s) (1e6 *. warm_s) speedup;
  Bose_serve.Serve.shutdown state

(* Sustained serve throughput: drive the `bosec serve` request engine
   in-process (no socket — this measures the service, not the kernel's
   socket stack) against a warm disk cache. Every request after the
   warm-up is a disk hit: fingerprint the job, read + validate the
   stored object, render the reply. The floor in bench_floors.json
   binds requests/sec. *)
let serve_sustained_row () =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:"serve-sustained" @@ fun () ->
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bosec-serve-bench.%d" (Unix.getpid ()))
  in
  let state = Bose_serve.Serve.create ~cache_dir:dir () in
  let distinct = 4 in
  let req k =
    Printf.sprintf
      {|{"id":%d,"op":"compile","params":{"modes":8,"rows":3,"cols":3,"seed":%d}}|} k
      (100 + (k mod distinct))
  in
  for k = 0 to distinct - 1 do
    ignore (Bose_serve.Serve.handle_line state (req k))
  done;
  let total = 200 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to total - 1 do
    let reply = Bose_serve.Serve.handle_line state (req k) in
    assert (String.length reply > 0 && reply.[0] = '{')
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let rps = if wall > 0. then float_of_int total /. wall else Float.infinity in
  Obs.Gauge.set g_serve_rps rps;
  Printf.printf "serve-sustained (%d reqs, warm disk cache)  %9.1f req/s\n" total rps;
  Bose_serve.Serve.shutdown state;
  (* Best-effort temp-cache cleanup. *)
  let rm_files d =
    if Sys.file_exists d then
      Array.iter
        (fun f ->
           let p = Filename.concat d f in
           if not (Sys.is_directory p) then try Sys.remove p with Sys_error _ -> ())
        (Sys.readdir d)
  in
  List.iter rm_files
    [ Filename.concat dir "objects"; Filename.concat dir "quarantine"; dir ];
  List.iter
    (fun d -> try Sys.rmdir d with Sys_error _ -> ())
    [ Filename.concat dir "objects"; Filename.concat dir "quarantine"; dir ]

(* Socket framing of one long line: a client sends an ~8 MB ping,
   padded with JSON whitespace, to [Serve.serve_socket] running in its
   own domain, and times it until the pong. Framing that scans only the
   bytes just read takes tens of ms here; rescanning the whole pending
   line on every 64 KB read takes seconds. The ceiling in
   bench_floors.json binds the wall time. *)
let serve_socket_line_row () =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:"serve-socket-line" @@ fun () ->
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bosec-line-bench.%d.sock" (Unix.getpid ()))
  in
  let server =
    Domain.spawn (fun () -> Bose_serve.Serve.serve_socket (Bose_serve.Serve.create ()) ~path)
  in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      connect (tries - 1)
  in
  let fd = connect 500 in
  let send line =
    let b = Bytes.of_string (line ^ "\n") in
    let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
    go 0
  in
  let recv () =
    let buf = Buffer.create 256 and one = Bytes.create 1 in
    let rec go () =
      if Unix.read fd one 0 1 = 0 then failwith "serve-socket-line: connection closed";
      if Bytes.get one 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
    in
    go ()
  in
  let line = "{" ^ String.make (8 * 1024 * 1024) ' ' ^ {|"id":1,"op":"ping"}|} in
  let t0 = Unix.gettimeofday () in
  send line;
  let reply = recv () in
  let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  assert (reply = {|{"id":1,"ok":true,"result":{"pong":true}}|});
  send {|{"op":"shutdown"}|};
  ignore (recv ());
  Unix.close fd;
  Domain.join server;
  Obs.Gauge.set g_serve_line_ms ms;
  Printf.printf "serve-socket-line (%d MB line)      %9.1f ms\n" (String.length line lsr 20) ms

(* Artifact load latency, text vs binary: parse the same plan + unitary
   pair from both encodings. The binary path replaces hex-float
   scanning with plane blits + one FNV pass, which is where the disk
   cache's load-time speedup comes from; the floor in bench_floors.json
   binds the ratio. *)
let artifact_load_row ~n =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "artifact-load-%d" n)
  @@ fun () ->
  let device = Lattice.create ~rows:6 ~cols:6 in
  let u = Unitary.haar_random (Rng.create 11) n in
  let pattern = Embedding.for_program device n in
  let plan = Eliminate.decompose pattern u in
  let ptext = Plan.to_string plan and pbin = Plan.to_binary_string plan in
  let utext = Unitary.to_string u and ubin = Unitary.to_binary_string u in
  let ok = function Ok _ -> () | Error _ -> assert false in
  let iters = 50 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  (* One warm round each so neither encoding pays first-touch costs. *)
  ok (Plan.of_string ptext);
  ok (Unitary.of_string utext);
  ok (Plan.of_string pbin);
  ok (Unitary.of_string ubin);
  let text_s = time (fun () -> ok (Plan.of_string ptext); ok (Unitary.of_string utext)) in
  let bin_s = time (fun () -> ok (Plan.of_string pbin); ok (Unitary.of_string ubin)) in
  let speedup = if bin_s > 0. then text_s /. bin_s else Float.infinity in
  Obs.Gauge.set g_text_load_us (1e6 *. text_s);
  Obs.Gauge.set g_bin_load_us (1e6 *. bin_s);
  Obs.Gauge.set g_bin_speedup speedup;
  Printf.printf "artifact-load-%-13d text %8.1f us, binary %8.1f us, %8.2fx speedup\n" n
    (1e6 *. text_s) (1e6 *. bin_s) speedup

(* Rotation-kernel throughput at sizes straddling the lock-release
   threshold (N >= Mat.blocking_threshold runs the blocking C entry
   points). Reported as million complex elements rotated per second;
   the floors are conservative lower bounds that catch a kernel
   falling off a cliff, not a tight performance pin. *)
let rot_throughput_row ~n =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "rot-kernel-%d" n)
  @@ fun () ->
  let rng = Rng.create 13 in
  let u =
    Mat.init n n (fun _ _ ->
        let re, im = Rng.gaussian_pair rng in
        Cx.make re im)
  in
  let c = cos 0.3 and s = sin 0.3 in
  let ere = cos 1.1 and eim = sin 1.1 in
  let iters = max 64 (2_000_000 / n) in
  let locks0 = Mat.lock_releases () in
  let t0 = Unix.gettimeofday () in
  for k = 1 to iters do
    let m = k mod (n - 1) in
    Mat.rot_cols_t_cs u ~m ~n:(m + 1) ~c ~s ~ere ~eim
  done;
  let wall = Unix.gettimeofday () -. t0 in
  (* Each call rewrites two length-n columns: 2n complex elements. *)
  let melems =
    if wall > 0. then float_of_int (2 * n * iters) /. wall /. 1e6 else Float.infinity
  in
  Obs.Gauge.set g_rot_melems melems;
  let path = if Mat.lock_releases () > locks0 then "blocking" else "fast" in
  Printf.printf "rot-kernel-%-16d %9.1f Melem/s (%s path, %d iters)\n" n melems path
    iters

(* Fused sweep-kernel throughput: a whole commuting front of rotations
   (disjoint adjacent pairs, BLAS rotm-style) applied in one C call,
   versus rot-kernel-* which pays one call per rotation. Same gauge
   (bench.rot_melems_s) and the same conservative floors — the fused
   path must never fall below the per-rotation path's floor. *)
let sweep_throughput_row ~n =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "sweep-kernel-%d" n)
  @@ fun () ->
  let rng = Rng.create 14 in
  let u =
    Mat.init n n (fun _ _ ->
        let re, im = Rng.gaussian_pair rng in
        Cx.make re im)
  in
  let rots = n / 2 in
  let seq = Mat.Rotseq.create ~capacity:rots () in
  let c = cos 0.3 and s = sin 0.3 in
  let ere = cos 1.1 and eim = sin 1.1 in
  for k = 0 to rots - 1 do
    let m = 2 * k in
    Mat.Rotseq.push seq ~m ~n:(m + 1) ~c ~s ~ere ~eim ~bound:n
  done;
  let iters = max 8 (4_000_000 / (n * rots)) in
  let locks0 = Mat.lock_releases () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Mat.sweep_cols_pre u seq ~rot_lo:0 ~rot_hi:rots ~row_lo:0 ~row_hi:n
  done;
  let wall = Unix.gettimeofday () -. t0 in
  (* Each pass rewrites two entries per (row, rotation) pair. *)
  let melems =
    if wall > 0. then float_of_int (2 * n * rots * iters) /. wall /. 1e6
    else Float.infinity
  in
  Obs.Gauge.set g_rot_melems melems;
  let path = if Mat.lock_releases () > locks0 then "blocking" else "fast" in
  Printf.printf "sweep-kernel-%-14d %9.1f Melem/s (%s path, %d rots/pass, %d iters)\n" n
    melems path rots iters

(* Per-call wall time of one small-N kernel that a serve-cold miss
   repeats hundreds of times: a map-polish score ([score-walk-24],
   Eliminate.angles_into along a 6x6 lattice embedding), a dropout
   replay with one rotation in eight masked out ([masked-replay-24],
   Plan.fidelity on a workspace), and a Haar draw ([haar-32]). Best of
   20 batches, timed with telemetry off as `bosec serve` runs them (the
   per-rotation angle histogram would otherwise dominate the walk). *)
let call_us_row ~row ~iters f =
  Benchlib.Telemetry.row ~experiment:"micro" ~row @@ fun () ->
  Obs.disable ();
  f ();
  let best = ref Float.infinity in
  for _ = 1 to 20 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int iters)
  done;
  Obs.enable ();
  Obs.Gauge.set g_call_us (1e6 *. !best);
  Printf.printf "%-28s %9.2f us/call\n" row (1e6 *. !best)

let small_kernel_rows () =
  let n = 24 in
  let u = Unitary.haar_random (Rng.create 24) n in
  let pattern = Embedding.for_program (Lattice.create ~rows:6 ~cols:6) n in
  let sched = Eliminate.schedule pattern in
  let work = Mat.create n n in
  let angles = Array.make (Eliminate.rotation_count sched) 0. in
  call_us_row ~row:"score-walk-24" ~iters:200 (fun () ->
      Eliminate.angles_into sched ~work u angles);
  let plan = Eliminate.decompose pattern u in
  let kept = Array.init (Plan.rotation_count plan) (fun i -> i mod 8 <> 5) in
  let ws = Mat.workspace () in
  call_us_row ~row:"masked-replay-24" ~iters:200 (fun () ->
      ignore (Plan.fidelity ~ws ~kept plan u));
  let rng = Rng.create 32 in
  call_us_row ~row:"haar-32" ~iters:50 (fun () -> ignore (Unitary.haar_random rng 32))

(* Elimination throughput at the paper's N=500 tier: Eliminate.decompose
   of a Haar unitary along the chain pattern, best of three. Unlike the
   disjoint pairs of sweep-kernel-*, the chain's stages rotate adjacent
   pairs, so every rotation reads the entry the previous one wrote.
   Reported as rotations × 2N elements per second: the perfbench
   replica's decomp.melems_s, on the same gauge as the kernel rows. *)
let eliminate_row ~n =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "eliminate-%d" n)
  @@ fun () ->
  let u = Unitary.haar_random (Rng.create 18) n in
  let pattern = Bose_hardware.Pattern.chain n in
  let ws = Mat.workspace () in
  let best = ref Float.infinity and rotations = ref 0 in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let plan = Eliminate.decompose ~ws pattern u in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    rotations := Plan.rotation_count plan
  done;
  let melems =
    if !best > 0. then float_of_int (!rotations * 2 * n) /. !best /. 1e6
    else Float.infinity
  in
  Obs.Gauge.set g_wall_s !best;
  Obs.Gauge.set g_rot_melems melems;
  Printf.printf "eliminate-%-17d %9.1f Melem/s (%.1f ms, %d rotations)\n" n melems
    (1e3 *. !best) !rotations

(* Dataflow-analysis throughput: full Flow.analyze reports (layering,
   liveness, feasibility BFS, budget intervals) over a synthetic
   N-mode plan with the Clements brickwork rotation pattern —
   N(N-1)/2 rotations, built directly so the row never pays an O(N^3)
   decomposition. The floor is analyses per second. *)
let analyze_row ~n ~rows ~cols =
  Benchlib.Telemetry.row ~experiment:"micro" ~row:(Printf.sprintf "analyze-%d" n)
  @@ fun () ->
  assert (rows * cols = n);
  let elements = ref [] in
  let count = ref 0 in
  for layer = 0 to n - 1 do
    let j = ref (layer mod 2) in
    while !j + 1 < n do
      incr count;
      elements :=
        {
          Bose_decomp.Plan.rotation =
            { Givens.m = !j; n = !j + 1; c = cos 0.3; s = sin 0.3; ere = 1.; eim = 0. };
          row = !count - 1;
        }
        :: !elements;
      j := !j + 2
    done
  done;
  let plan =
    {
      Bose_decomp.Plan.modes = n;
      elements = Array.of_list (List.rev !elements);
      lambda = Array.init n (fun _ -> Cx.one);
    }
  in
  let kept = Array.init (Array.length plan.Bose_decomp.Plan.elements) (fun i -> i mod 7 <> 0) in
  let backend =
    Bose_flow.Flow.backend
      ~coupling:(Bose_hardware.Coupling.of_lattice (Lattice.create ~rows ~cols))
      ~noise:(Bose_circuit.Noise.uniform 1e-4) ~min_transmission:0.2 ()
  in
  let iters = 10 in
  let t0 = Unix.gettimeofday () in
  let depth = ref 0 in
  for _ = 1 to iters do
    let r = Bose_flow.Flow.analyze ~kept ~backend plan in
    depth := r.Bose_flow.Flow.layers.Bose_flow.Flow.depth
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let per_s = if wall > 0. then float_of_int iters /. wall else Float.infinity in
  Obs.Gauge.set g_analyze_per_s per_s;
  Printf.printf "analyze-%-17d %9.1f analyses/s (depth %d, %d rotations)\n" n per_s
    !depth
    (Array.length plan.Bose_decomp.Plan.elements)

(* Parallel-scaling rows. Jobs values above the host's recommended
   domain count are skipped rather than reported: with more domains than
   cores the OCaml runtime's stop-the-world minor collections serialize
   the pool and the row would measure GC contention, not scaling. The
   speedup floors in bench_floors.json therefore only bind on multi-core
   runners (CI), and check_regression skips floors whose row is absent. *)
let scaling_jobs () =
  List.filter (fun j -> j <= Domain.recommended_domain_count ()) [ 1; 2; 4 ]

let batch_compile_scaling ~n ~rows ~cols ~job_count =
  let device = Lattice.create ~rows ~cols in
  let job_list =
    List.init job_count (fun k ->
        (Unitary.haar_random (Rng.create (50 + k)) n, Bosehedral.Config.Full_opt))
  in
  let base = ref 0. in
  List.iter
    (fun jobs ->
       Benchlib.Telemetry.row ~experiment:"micro"
         ~row:(Printf.sprintf "batch-compile-%d-jobs-%d" n jobs)
       @@ fun () ->
       let t0 = Unix.gettimeofday () in
       ignore
         (Bosehedral.Compiler.compile_batch ~tau:0.99 ~jobs ~rng:(Rng.create 8)
            ~device job_list);
       let wall = Unix.gettimeofday () -. t0 in
       if jobs = 1 then base := wall;
       let speedup = if wall > 0. then !base /. wall else 0. in
       Obs.Gauge.set g_wall_s wall;
       Obs.Gauge.set g_par_speedup speedup;
       Printf.printf "batch-compile-%-2d (%d jobs)  --jobs %d  %9.1f ms  %6.2fx\n" n
         job_count jobs (1e3 *. wall) speedup)
    (scaling_jobs ())

(* Intra-decomposition scaling: ONE Clements decomposition with the
   fused engine's bulk sweeps chunked over the pool, versus batch
   scaling above which parallelizes across independent compiles. Output
   is bit-identical at every jobs value (test/test_par.ml); only the
   wall clock moves. Speedup rows report bench.intra_speedup. *)
let clements_scaling ~n =
  let u = Unitary.haar_random (Rng.create 15) n in
  let base = ref 0. in
  List.iter
    (fun jobs ->
       Benchlib.Telemetry.row ~experiment:"micro"
         ~row:(Printf.sprintf "clements-%d-jobs-%d" n jobs)
       @@ fun () ->
       let with_pool f =
         if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> f (Some p)) else f None
       in
       let t0 = Unix.gettimeofday () in
       ignore (with_pool (fun pool -> Clements.decompose ?pool u));
       let wall = Unix.gettimeofday () -. t0 in
       if jobs = 1 then base := wall;
       let speedup = if wall > 0. then !base /. wall else 0. in
       Obs.Gauge.set g_wall_s wall;
       Obs.Gauge.set g_intra_speedup speedup;
       Printf.printf "clements-%-12d --jobs %d  %9.1f ms  %6.2fx\n" n jobs (1e3 *. wall)
         speedup)
    (scaling_jobs ())

(* The paper's N=500 tier end to end: one Compiler.compile with the
   pool threaded through the pass manager into the fused elimination.
   The jobs-4 intra_speedup floor (bench_floors.json) is the
   acceptance gate for intra-compile parallelism. *)
let intra_compile_scaling ~n ~rows ~cols =
  let device = Lattice.create ~rows ~cols in
  let u = Unitary.haar_random (Rng.create 16) n in
  let base = ref 0. in
  List.iter
    (fun jobs ->
       Benchlib.Telemetry.row ~experiment:"micro"
         ~row:(Printf.sprintf "intra-compile-%d-jobs-%d" n jobs)
       @@ fun () ->
       let with_pool f =
         if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> f (Some p)) else f None
       in
       let t0 = Unix.gettimeofday () in
       ignore
         (with_pool (fun pool ->
              Bosehedral.Compiler.compile ~tau:0.99 ?pool ~rng:(Rng.create 17) ~device
                ~config:Bosehedral.Config.Baseline u));
       let wall = Unix.gettimeofday () -. t0 in
       if jobs = 1 then base := wall;
       let speedup = if wall > 0. then !base /. wall else 0. in
       Obs.Gauge.set g_wall_s wall;
       Obs.Gauge.set g_intra_speedup speedup;
       Printf.printf "intra-compile-%-7d --jobs %d  %9.1f ms  %6.2fx\n" n jobs
         (1e3 *. wall) speedup)
    (scaling_jobs ())

let sampling_scaling ~modes ~shots =
  let u = Unitary.haar_random (Rng.create 9) modes in
  let state = Gaussian.vacuum modes in
  for i = 0 to modes - 1 do
    Gaussian.squeeze state i (Cx.re 0.35)
  done;
  Gaussian.interferometer state u;
  let base = ref 0. in
  List.iter
    (fun jobs ->
       Benchlib.Telemetry.row ~experiment:"micro"
         ~row:(Printf.sprintf "sample-chain-%d-jobs-%d" modes jobs)
       @@ fun () ->
       let with_pool f =
         if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> f (Some p))
         else f None
       in
       let t0 = Unix.gettimeofday () in
       let samples =
         with_pool (fun pool ->
             Sampler.chain_rule_chains ?pool (Rng.create 10) state shots)
       in
       let wall = Unix.gettimeofday () -. t0 in
       assert (List.length samples = shots);
       if jobs = 1 then base := wall;
       let speedup = if wall > 0. then !base /. wall else 0. in
       Obs.Gauge.set g_wall_s wall;
       Obs.Gauge.set g_par_speedup speedup;
       Printf.printf "sample-chain-%-2d (%d shots)  --jobs %d  %9.1f ms  %6.2fx\n"
         modes shots jobs (1e3 *. wall) speedup)
    (scaling_jobs ())

(* Cross-target compiles: the same 32-qumode Haar unitary on every
   registered hardware target, with plan size, hard-mask keep count,
   predicted fidelity and schedule depth as gauges. The floors pin the
   quality contract per target (a topology or ceiling regression that
   degrades plans fails here); wall-clock is reported but not bound —
   graph targets legitimately cost more than the grid path. *)
let target_compile_row ~n (target : Bose_hardware.Target.t) =
  Benchlib.Telemetry.row ~experiment:"micro"
    ~row:(Printf.sprintf "target-compile-%d-%s" n target.Bose_hardware.Target.name)
  @@ fun () ->
  let u = Unitary.haar_random (Rng.create 8) n in
  let t0 = Unix.gettimeofday () in
  let c =
    Bosehedral.Compiler.compile_for_target ~effort:Bosehedral.Compiler.Fast ~tau:0.99
      ~rng:(Rng.create 9) ~target ~config:Bosehedral.Config.Full_opt u
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rotations = Plan.rotation_count c.Bosehedral.Compiler.plan in
  let kept = Bosehedral.Compiler.beamsplitters_kept c in
  let fidelity = Bosehedral.Compiler.predicted_fidelity c in
  let depth =
    (Bosehedral.Compiler.analyze c).Bose_flow.Flow.layers.Bose_flow.Flow.depth
  in
  Obs.Gauge.set g_wall_s wall;
  Obs.Gauge.set g_target_rotations (float_of_int rotations);
  Obs.Gauge.set g_target_kept (float_of_int kept);
  Obs.Gauge.set g_target_fidelity fidelity;
  Obs.Gauge.set g_target_depth (float_of_int depth);
  Printf.printf
    "target-compile-%d-%-13s %8.1f ms  %4d rot, keep %4d, fidelity %.4f, depth %3d\n" n
    target.Bose_hardware.Target.name (1e3 *. wall) rotations kept fidelity depth

let run () =
  Benchlib.header "Micro-benchmarks (Bechamel): compiler kernels at 24 qumodes";
  cache_recompile_row ~n:16 ~rows:4 ~cols:4;
  cache_recompile_row ~n:32 ~rows:6 ~cols:6;
  List.iter (target_compile_row ~n:32) (Bose_hardware.Target.all ());
  serve_sustained_row ();
  serve_socket_line_row ();
  artifact_load_row ~n:32;
  rot_throughput_row ~n:128;
  rot_throughput_row ~n:256;
  rot_throughput_row ~n:500;
  sweep_throughput_row ~n:128;
  sweep_throughput_row ~n:256;
  sweep_throughput_row ~n:500;
  small_kernel_rows ();
  eliminate_row ~n:500;
  analyze_row ~n:500 ~rows:20 ~cols:25;
  batch_compile_scaling ~n:32 ~rows:6 ~cols:6 ~job_count:8;
  clements_scaling ~n:128;
  clements_scaling ~n:256;
  clements_scaling ~n:500;
  intra_compile_scaling ~n:500 ~rows:23 ~cols:22;
  sampling_scaling ~modes:6 ~shots:1024;
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.6) ~kde:(Some 500) () in
  let estimates = Hashtbl.create 16 in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       Hashtbl.iter
         (fun name result ->
            let ols =
              Analyze.one
                (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
                Instance.monotonic_clock result
            in
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Hashtbl.replace estimates name est;
              Printf.printf "%-28s %12.1f ns/run\n" name est
            | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
         results)
    (benchmarks ());
  (* Kernel-vs-reference ratios: flat storage earns its keep here. *)
  List.iter
    (fun (kernel, reference) ->
       match (Hashtbl.find_opt estimates kernel, Hashtbl.find_opt estimates reference) with
       | Some k, Some r when k > 0. ->
         Printf.printf "%-28s %11.2fx vs %s\n" (kernel ^ " speedup") (r /. k) reference
       | _ -> ())
    [ ("gemm-64", "gemm-64-reference"); ("givens-rot-32", "givens-rot-32-reference") ];
  (* Pre-refactor Clements.decompose at N=32 measured 153.4 us/run on
     the CI host at the boxed-row storage layout (commit afc3fb3); the
     flat kernels + trig-free eliminations are expected to clear 2x. *)
  let clements_baseline_ns = 153_400. in
  (match Hashtbl.find_opt estimates "clements-32" with
   | Some k when k > 0. ->
     Printf.printf "%-28s %11.2fx vs pre-refactor (%.1f us)\n" "clements-32 speedup"
       (clements_baseline_ns /. k)
       (clements_baseline_ns /. 1e3)
   | Some _ | None -> ())
