(* Unit and property tests for the bose_util library. *)

module Rng = Bose_util.Rng
module Stats = Bose_util.Stats
module Dist = Bose_util.Dist
module Combin = Bose_util.Combin
module Broaden = Bose_util.Broaden
module Json = Bose_util.Json
module Obs = Bose_obs.Obs

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_uniform_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 8 in
  let xs = Array.init 50_000 (fun _ -> Rng.uniform rng) in
  check_close "mean near 0.5" 0.01 0.5 (Stats.mean xs)

let test_rng_int_bounds () =
  let rng = Rng.create 9 in
  let counts = Array.make 7 0 in
  for _ = 1 to 14_000 do
    let k = Rng.int rng 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
       Alcotest.(check bool) (Printf.sprintf "bucket %d roughly uniform" i) true
         (c > 1600 && c < 2400))
    counts

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_gaussian_moments () =
  let rng = Rng.create 10 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng) in
  check_close "mean near 0" 0.02 0. (Stats.mean xs);
  check_close "variance near 1" 0.05 1. (Stats.variance xs)

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

let test_choose_weighted_frequencies () =
  let rng = Rng.create 12 in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 20_000 do
    let i = Rng.choose_weighted rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  check_close "3:1 ratio" 0.15 3.
    (float_of_int counts.(2) /. float_of_int (max 1 counts.(0)))

let test_choose_weighted_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.choose_weighted: weights sum to zero") (fun () ->
        ignore (Rng.choose_weighted rng [| 0.; 0. |]))

let test_swr_distinct_and_count () =
  let rng = Rng.create 13 in
  for _ = 1 to 200 do
    let w = Array.init 10 (fun i -> float_of_int (i mod 3)) in
    let picked = Rng.sample_without_replacement rng w 7 in
    Alcotest.(check int) "count" 7 (List.length picked);
    Alcotest.(check int) "distinct" 7 (List.length (List.sort_uniq compare picked))
  done

let test_swr_prefers_heavy () =
  let rng = Rng.create 14 in
  (* Index 0 has overwhelming weight: it must appear in a 1-of-3 draw
     almost always. *)
  let hits = ref 0 in
  for _ = 1 to 2000 do
    match Rng.sample_without_replacement rng [| 1e9; 1.; 1. |] 1 with
    | [ 0 ] -> incr hits
    | _ -> ()
  done;
  Alcotest.(check bool) "heavy index dominates" true (!hits > 1950)

let test_swr_zero_weights_come_last () =
  let rng = Rng.create 15 in
  for _ = 1 to 100 do
    match Rng.sample_without_replacement rng [| 0.; 5.; 0.; 5. |] 2 with
    | picked ->
      List.iter
        (fun i -> Alcotest.(check bool) "positive first" true (i = 1 || i = 3))
        picked
  done

let test_split_independence () =
  let parent = Rng.create 5 in
  let children = Rng.split parent 4 in
  Alcotest.(check int) "stream count" 4 (Array.length children);
  let draws = Array.map Rng.bits64 children in
  let a = Rng.bits64 parent in
  Array.iter
    (fun b ->
       Alcotest.(check bool) "parent and child streams differ" true
         (not (Int64.equal a b)))
    draws;
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Alcotest.(check bool) "child streams pairwise differ" true
        (not (Int64.equal draws.(i) draws.(j)))
    done
  done;
  (* Same parent seed => same child streams, independent of use order. *)
  let again = Rng.split (Rng.create 5) 4 in
  Array.iteri
    (fun i c ->
       Alcotest.(check bool) "split is deterministic" true
         (Int64.equal draws.(i) (Rng.bits64 c)))
    again;
  Alcotest.(check int) "zero streams" 0 (Array.length (Rng.split parent 0))

let test_same_is_physical_identity () =
  let r = Rng.create 7 in
  Alcotest.(check bool) "same rng" true (Rng.same r r);
  Alcotest.(check bool) "copy is a fresh state" false (Rng.same r (Rng.copy r));
  Alcotest.(check bool) "of_key is a fresh state" false (Rng.same r (Rng.of_key 7L))

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean_var () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "variance" (5. /. 3.) (Stats.variance [| 1.; 2.; 3.; 4. |]);
  check_float "stddev" (sqrt (5. /. 3.)) (Stats.stddev [| 1.; 2.; 3.; 4. |])

let test_stats_pearson () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  check_float "perfect positive" 1. (Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float "perfect negative" (-1.) (Stats.pearson xs zs);
  check_float "zero variance gives 0" 0. (Stats.pearson xs (Array.make 5 3.))

let test_stats_median_percentile () =
  check_float "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  check_float "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  check_float "p0" 1. (Stats.percentile [| 1.; 2.; 3. |] 0.);
  check_float "p100" 3. (Stats.percentile [| 1.; 2.; 3. |] 100.);
  check_float "p50" 2. (Stats.percentile [| 1.; 2.; 3. |] 50.)

let test_stats_histogram () =
  let h = Stats.histogram ~min:0. ~max:10. ~bins:5 [| 0.5; 1.; 9.9; 11.; -3. |] in
  Alcotest.(check (array int)) "buckets" [| 3; 0; 0; 0; 2 |] h

(* ----------------------------------------------------------------- Dist *)

let test_dist_of_counts () =
  let d = Dist.of_counts [ ("a", 1); ("b", 3) ] in
  check_float "p(a)" 0.25 (Dist.prob d "a");
  check_float "p(b)" 0.75 (Dist.prob d "b");
  check_float "p(c)" 0. (Dist.prob d "c");
  check_float "total" 1. (Dist.total d)

let test_dist_merge_duplicates () =
  let d = Dist.of_weights [ (1, 1.); (1, 1.); (2, 2.) ] in
  check_float "merged" 0.5 (Dist.prob d 1)

let test_dist_jsd_bounds () =
  let p = Dist.of_weights [ (0, 1.) ] and q = Dist.of_weights [ (1, 1.) ] in
  check_close "disjoint = ln 2" 1e-12 (log 2.) (Dist.jsd p q);
  check_float "self = 0" 0. (Dist.jsd p p);
  check_float "symmetric" (Dist.jsd p q) (Dist.jsd q p)

let test_dist_kl () =
  let p = Dist.of_weights [ (0, 0.5); (1, 0.5) ] in
  let q = Dist.of_weights [ (0, 0.25); (1, 0.75) ] in
  check_close "kl value" 1e-12
    ((0.5 *. log (0.5 /. 0.25)) +. (0.5 *. log (0.5 /. 0.75)))
    (Dist.kl p q);
  let r = Dist.of_weights [ (0, 1.) ] in
  Alcotest.(check bool) "kl infinite on missing support" true
    (Dist.kl p r = infinity)

let test_dist_tvd_fidelity () =
  let p = Dist.of_weights [ (0, 0.5); (1, 0.5) ] in
  let q = Dist.of_weights [ (0, 0.5); (1, 0.5) ] in
  check_float "tvd self" 0. (Dist.tvd p q);
  check_close "fidelity self" 1e-12 1. (Dist.fidelity p q);
  let r = Dist.of_weights [ (2, 1.) ] in
  check_float "tvd disjoint" 1. (Dist.tvd p r);
  check_float "fidelity disjoint" 0. (Dist.fidelity p r)

let test_dist_mix () =
  let p = Dist.of_weights [ (0, 1.) ] and q = Dist.of_weights [ (1, 1.) ] in
  let m = Dist.mix [ (1., p); (3., q) ] in
  check_float "mix p0" 0.25 (Dist.prob m 0);
  check_float "mix p1" 0.75 (Dist.prob m 1)

let test_dist_map_outcomes () =
  let d = Dist.of_weights [ (1, 0.25); (2, 0.25); (3, 0.5) ] in
  let e = Dist.map_outcomes (fun x -> x mod 2) d in
  check_float "odd mass" 0.75 (Dist.prob e 1);
  check_float "even mass" 0.25 (Dist.prob e 0)

let test_dist_sample_frequencies () =
  let rng = Rng.create 99 in
  let d = Dist.of_weights [ ("x", 0.2); ("y", 0.8) ] in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Dist.sample rng d = "y" then incr hits
  done;
  check_close "sample matches prob" 0.03 0.8 (float_of_int !hits /. 10_000.)

let test_dist_of_samples () =
  let d = Dist.of_samples [ 1; 1; 2; 2; 2; 3 ] in
  check_float "empirical" 0.5 (Dist.prob d 2)

(* --------------------------------------------------------------- Combin *)

let test_combin_factorial () =
  check_float "0!" 1. (Combin.factorial 0);
  check_float "5!" 120. (Combin.factorial 5);
  check_close "log 10!" 1e-9 (log (Combin.factorial 10)) (Combin.log_factorial 10)

let test_combin_binomial () =
  check_float "C(5,2)" 10. (Combin.binomial 5 2);
  check_float "C(n,0)" 1. (Combin.binomial 7 0);
  check_float "C(n,k>n)" 0. (Combin.binomial 3 5)

let test_combin_compositions () =
  let c = Combin.compositions 3 2 in
  Alcotest.(check int) "count = C(4,1)" 4 (List.length c);
  List.iter
    (fun comp -> Alcotest.(check int) "sums to 3" 3 (Combin.pattern_total comp))
    c

let test_combin_patterns () =
  let pats = Combin.patterns_up_to ~modes:3 ~max_photons:2 in
  (* C(2,2) + C(3,2) + C(4,2) = 1 + 3 + 6 *)
  Alcotest.(check int) "count" 10 (List.length pats);
  List.iter (fun p -> Alcotest.(check int) "length" 3 (List.length p)) pats

let test_combin_matchings () =
  Alcotest.(check int) "2 vertices" 1 (List.length (Combin.perfect_matchings 2));
  Alcotest.(check int) "4 vertices" 3 (List.length (Combin.perfect_matchings 4));
  Alcotest.(check int) "6 vertices" 15 (List.length (Combin.perfect_matchings 6));
  Alcotest.(check int) "odd gives none" 0 (List.length (Combin.perfect_matchings 3))

(* -------------------------------------------------------------- Broaden *)

let test_broaden_normalization () =
  (* A Lorentzian integrates to ~1 over a wide grid. *)
  let grid = Broaden.grid ~min:(-200.) ~max:200. ~points:4001 in
  let values = Broaden.broaden ~gamma:1. ~grid [ (0., 1.) ] in
  let step = 400. /. 4000. in
  let integral = Array.fold_left (fun acc v -> acc +. (v *. step)) 0. values in
  check_close "integral near 1" 0.01 1. integral

let test_broaden_peak_location () =
  let grid = Broaden.grid ~min:0. ~max:10. ~points:101 in
  let values = Broaden.broaden ~gamma:0.5 ~grid [ (4., 2.) ] in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > values.(!best) then best := i) values;
  check_close "peak at stick" 0.11 4. grid.(!best)

(* ----------------------------------------------------------------- Json *)

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_depth_limit () =
  Alcotest.(check bool) "512 levels parse" true (Result.is_ok (Json.parse (nested 512)));
  Alcotest.(check (result reject string)) "513 levels do not"
    (Error "nesting deeper than 512 levels (at byte 512)")
    (Result.map ignore (Json.parse (nested 513)))

(* Finite floats from every bit pattern, plus the spellings the printer
   special-cases: -0., and integers on both sides of 2^53. *)
let gen_number =
  let open QCheck.Gen in
  let two53 = 9007199254740992. in
  let finite bits =
    let x = Int64.float_of_bits bits in
    if Float.is_finite x then x else 1.5
  in
  oneof
    [
      map finite int64;
      map float_of_int (int_range (-1000) 1000);
      return (-0.);
      map (fun d -> two53 +. float_of_int d) (int_range (-3) 3);
      map (fun d -> -.two53 -. float_of_int d) (int_range (-3) 3);
    ]

(* Strings over all 256 byte values, with a bias toward the bytes the
   printer escapes. *)
let gen_bytes =
  let open QCheck.Gen in
  let escaped = oneofl [ '"'; '\\'; '\n'; '\b'; '\012'; '\000'; '\031' ] in
  string_size ~gen:(oneof [ char; escaped ]) (int_bound 10)

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) gen_number;
        map (fun s -> Json.Str s) gen_bytes;
      ]
  in
  sized_size (int_bound 8)
  @@ fix (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair gen_bytes (self (depth - 1)))) );
          ])

(* Structural equality, except that floats compare by bits so -0.
   must come back as -0. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && json_equal x y) xs ys
  | _ -> a = b

(* Byte-level damage: bit flip, truncation, insertion, deletion. *)
let gen_mutations =
  let open QCheck.Gen in
  let byte = oneof [ char; oneofl [ '['; ']'; '{'; '}'; '"'; ','; ':'; '\\' ] ] in
  list_size (int_range 1 4) (triple (int_bound 3) nat byte)

let mutate s muts =
  List.fold_left
    (fun s (kind, pos, c) ->
       let n = String.length s in
       let i = if n = 0 then 0 else pos mod n in
       match kind with
       | 0 when n > 0 ->
         let bit = 1 lsl (Char.code c land 7) in
         String.mapi (fun j b -> if j = i then Char.chr (Char.code b lxor bit) else b) s
       | 1 -> String.sub s 0 i
       | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
       | 3 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
       | _ -> s)
    s muts

let report_text =
  let open Obs.Report in
  let span = { name = "compile"; count = 3; total_s = 0.25; max_s = 0.125; depth = 0 } in
  let histo =
    { name = "decomp.angle"; bounds = [| 0.1; 1. |]; counts = [| 1; 2; 3 |]; sum = 4.5 }
  in
  Json.to_string
    (to_json
       {
         spans = [ span ];
         counters = [ ("decomp.eliminations", 120); ("serve.requests", 0) ];
         gauges = [ ("bench.serve_rps", 5400.5); ("bench.target_fidelity", Float.nan) ];
         histograms = [ histo ];
       })

(* ------------------------------------------------------------ properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"jsd is within [0, ln 2]" ~count:200
      (pair (list (pair small_nat pos_float)) (list (pair small_nat pos_float)))
      (fun (a, b) ->
         let clean l = List.filter (fun (_, w) -> w > 0. && Float.is_finite w) l in
         let a = clean a and b = clean b in
         assume (a <> [] && b <> []);
         let p = Dist.of_weights a and q = Dist.of_weights b in
         let j = Dist.jsd p q in
         j >= 0. && j <= log 2. +. 1e-9);
    Test.make ~name:"tvd triangle with fidelity bound" ~count:200
      (list (pair small_nat pos_float))
      (fun a ->
         let a = List.filter (fun (_, w) -> w > 0. && Float.is_finite w) a in
         assume (a <> []);
         let p = Dist.of_weights a in
         Dist.tvd p p = 0. && Dist.fidelity p p > 1. -. 1e-9);
    Test.make ~name:"compositions count matches binomial" ~count:50
      (pair (int_range 0 6) (int_range 1 5))
      (fun (n, k) ->
         List.length (Combin.compositions n k)
         = int_of_float (Combin.binomial (n + k - 1) (k - 1)));
    Test.make ~name:"sample_without_replacement returns distinct sorted-compatible"
      ~count:100
      (pair (int_range 1 12) int)
      (fun (n, seed) ->
         let rng = Rng.create seed in
         let w = Array.init n (fun i -> float_of_int (1 + (i mod 4))) in
         let m = 1 + (abs seed mod n) in
         let picked = Rng.sample_without_replacement rng w m in
         List.length picked = m
         && List.length (List.sort_uniq compare picked) = m
         && List.for_all (fun i -> i >= 0 && i < n) picked);
    Test.make ~name:"json parse inverts to_string" ~count:300
      (make ~print:Json.to_string gen_json)
      (fun v ->
         match Json.parse (Json.to_string v) with
         | Ok v' -> json_equal v v'
         | Error _ -> false);
    Test.make ~name:"json parse survives mutated input" ~count:300
      (make ~print:(fun (v, m) -> String.escaped (mutate (Json.to_string v) m))
         Gen.(pair gen_json gen_mutations))
      (fun (v, m) ->
         match Json.parse (mutate (Json.to_string v) m) with Ok _ | Error _ -> true);
    Test.make ~name:"report decoder survives mutated input" ~count:300
      (make ~print:(fun m -> String.escaped (mutate report_text m)) gen_mutations)
      (fun m ->
         match Result.bind (Json.parse (mutate report_text m)) Obs.Report.of_json with
         | Ok _ | Error _ -> true);
  ]

let () =
  Alcotest.run "bose_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_is_permutation;
          Alcotest.test_case "weighted frequencies" `Quick test_choose_weighted_frequencies;
          Alcotest.test_case "weighted invalid" `Quick test_choose_weighted_invalid;
          Alcotest.test_case "swr distinct" `Quick test_swr_distinct_and_count;
          Alcotest.test_case "swr prefers heavy" `Quick test_swr_prefers_heavy;
          Alcotest.test_case "swr zeros last" `Quick test_swr_zero_weights_come_last;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "same identity" `Quick test_same_is_physical_identity;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "dist",
        [
          Alcotest.test_case "of_counts" `Quick test_dist_of_counts;
          Alcotest.test_case "merge duplicates" `Quick test_dist_merge_duplicates;
          Alcotest.test_case "jsd bounds" `Quick test_dist_jsd_bounds;
          Alcotest.test_case "kl" `Quick test_dist_kl;
          Alcotest.test_case "tvd/fidelity" `Quick test_dist_tvd_fidelity;
          Alcotest.test_case "mix" `Quick test_dist_mix;
          Alcotest.test_case "map_outcomes" `Quick test_dist_map_outcomes;
          Alcotest.test_case "sample frequencies" `Quick test_dist_sample_frequencies;
          Alcotest.test_case "of_samples" `Quick test_dist_of_samples;
        ] );
      ( "combin",
        [
          Alcotest.test_case "factorial" `Quick test_combin_factorial;
          Alcotest.test_case "binomial" `Quick test_combin_binomial;
          Alcotest.test_case "compositions" `Quick test_combin_compositions;
          Alcotest.test_case "patterns" `Quick test_combin_patterns;
          Alcotest.test_case "matchings" `Quick test_combin_matchings;
        ] );
      ( "broaden",
        [
          Alcotest.test_case "normalization" `Quick test_broaden_normalization;
          Alcotest.test_case "peak location" `Quick test_broaden_peak_location;
        ] );
      ("json", [ Alcotest.test_case "depth limit" `Quick test_json_depth_limit ]);
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) qcheck_tests);
    ]
