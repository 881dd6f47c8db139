(* Bit-identity of the mapping polish, the dropout policy search, the
   elimination schedule and the RNG against the reference
   implementations in oracle.ml. The two sides share only the substrate
   (Givens derivation, rotation kernels, plan replay, permutations), so
   a change in a derived angle, a sorted sum, a tie order or a draw
   shows up here as a differing bit. The Plan/Unitary text codecs are
   held to the Printf/Scanf ones the same way, byte for byte out and
   bit for bit in, and the JSON printer to the per-byte one. *)

module Rng = Bose_util.Rng
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Givens = Bose_linalg.Givens
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Embedding = Bose_hardware.Embedding
module Pattern = Bose_hardware.Pattern
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout

let bits = Int64.bits_of_float

let check_float_bits label a b =
  Alcotest.(check int64) label (bits a) (bits b)

let check_mat_bits label a b =
  let n = Mat.rows a in
  Alcotest.(check (pair int int)) (label ^ " dims") (Mat.dims a) (Mat.dims b);
  for i = 0 to n - 1 do
    for j = 0 to Mat.cols a - 1 do
      let x = Mat.get a i j and y = Mat.get b i j in
      if bits x.Complex.re <> bits y.Complex.re || bits x.Complex.im <> bits y.Complex.im then
        Alcotest.failf "%s: entry (%d,%d) differs" label i j
    done
  done

let check_mapping label (a : Mapping.t) (b : Mapping.t) =
  Alcotest.(check (array int)) (label ^ ": row perm")
    (Perm.to_array a.Mapping.row_perm) (Perm.to_array b.Mapping.row_perm);
  Alcotest.(check (array int)) (label ^ ": col perm")
    (Perm.to_array a.Mapping.col_perm) (Perm.to_array b.Mapping.col_perm);
  check_mat_bits (label ^ ": permuted") a.Mapping.permuted b.Mapping.permuted;
  Alcotest.(check int) (label ^ ": small angles") a.Mapping.small_angles b.Mapping.small_angles

let check_policy label (a : Dropout.policy) (b : Dropout.policy) =
  check_float_bits (label ^ ": tau") a.Dropout.tau b.Dropout.tau;
  check_float_bits (label ^ ": theta_cut") a.Dropout.theta_cut b.Dropout.theta_cut;
  Alcotest.(check int) (label ^ ": kept_count") a.Dropout.kept_count b.Dropout.kept_count;
  Alcotest.(check int) (label ^ ": power") a.Dropout.power b.Dropout.power;
  Alcotest.(check (array int64)) (label ^ ": weights")
    (Array.map bits a.Dropout.weights) (Array.map bits b.Dropout.weights);
  check_float_bits (label ^ ": expected_fidelity") a.Dropout.expected_fidelity
    b.Dropout.expected_fidelity

(* One program end to end through the passes that changed: polish from
   a shared first mapping, decompose, then the dropout policy search,
   each side with its own generator seeded alike. *)
let check_program ?(optimize = true) ?dropout ~label ~rows ~cols ~trials ~tau ~seed u =
  let n = Mat.rows u in
  let pattern = Embedding.for_program (Lattice.create ~rows ~cols) n in
  let ws = Mat.workspace () in
  let first = if optimize then Mapping.optimize ~ws pattern u else Mapping.trivial u in
  let rng = Rng.create seed and orng = Oracle.Rng.create seed in
  let polished = Mapping.polish ~ws ~trials ~tau ~rng pattern first in
  let opolished = Oracle.polish ~trials ~tau ~rng:orng pattern first in
  check_mapping label polished opolished;
  let plan = Eliminate.decompose ~ws pattern polished.Mapping.permuted in
  let oplan = Oracle.decompose pattern opolished.Mapping.permuted in
  Alcotest.(check string) (label ^ ": plan") (Plan.to_string oplan) (Plan.to_string plan);
  (match dropout with
   | None -> ()
   | Some (powers, iterations) ->
     let policy =
       Dropout.make_policy ~ws ~powers ~iterations rng plan polished.Mapping.permuted ~tau
     in
     let opolicy =
       Oracle.make_policy ~powers ~iterations orng oplan opolished.Mapping.permuted ~tau
     in
     check_policy label policy opolicy);
  Alcotest.(check int64) (label ^ ": next draw") (Oracle.Rng.bits64 orng) (Rng.bits64 rng)

let standard_dropout = Some ([ 1; 2; 5; 10; 20; 50; 100 ], 40)

let test_haar () =
  List.iter
    (fun (n, rows, cols) ->
       List.iter
         (fun seed ->
            check_program
              ~label:(Printf.sprintf "haar%d/%d" n seed)
              ~rows ~cols ~trials:500 ~tau:0.999 ~seed:(seed + 1) ?dropout:standard_dropout
              (Unitary.haar_random (Rng.create seed) n))
         [ 11; 12 ])
    [ (16, 4, 4); (24, 6, 6); (32, 6, 6) ]

(* The paper's 24-qumode applications at their Table II accuracy. *)
let test_applications () =
  List.iter
    (fun seed ->
       let rng = Rng.create seed in
       List.iter
         (fun (name, tau, u) ->
            check_program ~label:(Printf.sprintf "%s/%d" name seed) ~rows:6 ~cols:6 ~trials:500
              ~tau ~seed:(seed + 7) ?dropout:standard_dropout u)
         [
           ("DS", 0.999, Bose_apps.Encoding.unitary_of (Bose_apps.Graph.random rng ~n:24 ~p:0.8));
           ("MC", 0.9996, Bose_apps.Encoding.unitary_of (Bose_apps.Graph.random rng ~n:24 ~p:0.75));
           ("GS", 0.999, Bose_apps.Encoding.unitary_of (Bose_apps.Graph.random rng ~n:24 ~p:0.85));
           ( "VS",
             0.98,
             (Bose_apps.Vibronic.program
                (Bose_apps.Vibronic.synthetic rng ~modes:24)
                ~temperature:500.)
               .Bosehedral.Runner.unitary );
         ])
    [ 21; 22 ]

(* N = 128, a power-of-two stride, through polish, decompose and the
   dropout replays. *)
let test_haar_128 () =
  check_program ~optimize:false ~label:"haar128" ~rows:12 ~cols:11 ~trials:20 ~tau:0.999
    ~seed:5 ~dropout:([ 1; 20 ], 4)
    (Unitary.haar_random (Rng.create 128) 128)

(* The walk rotates only the rows above each stage row; the reference
   rotates every row. Chains at N = 129 and 333 (the chain stages
   rotate adjacent pairs) and one lattice pattern: the plan text
   carries every rotation and Λ as exact hex floats, so equal text is
   equal bits. *)
let test_row_skip () =
  List.iter
    (fun (label, pattern) ->
       let n = Pattern.size pattern in
       let u = Unitary.haar_random (Rng.create (300 + n)) n in
       Alcotest.(check string) (label ^ ": plan")
         (Plan.to_string (Oracle.decompose pattern u))
         (Plan.to_string (Eliminate.decompose pattern u)))
    [
      ("chain129", Pattern.chain 129);
      ("chain333", Pattern.chain 333);
      ("lattice144", Embedding.for_program (Lattice.create ~rows:12 ~cols:12) 144);
    ]

let test_chain_500 () =
  let chain = Pattern.chain 500 in
  Alcotest.(check bool) "500-chain schedule" true
    (Pattern.full_schedule chain = Oracle.full_schedule chain)

(* ------------------------------------------------------------ properties *)

let prop_schedule =
  QCheck.Test.make ~name:"schedule matches the reference on random trees" ~count:60
    QCheck.(pair (int_range 2 128) int)
    (fun (n, seed) ->
       let p = Oracle.random_pattern (Random.State.make [| seed |]) n in
       Pattern.full_schedule p = Oracle.full_schedule p)

let fake_plan total =
  let rotation = Givens.of_angles ~m:0 ~n:1 ~theta:0.1 ~phi:0. in
  {
    Plan.modes = 2;
    elements = Array.make total { Plan.rotation; row = 1 };
    lambda = [| Cx.one; Cx.one |];
  }

(* [sample_kept] against the reference sort-based sampler, on weights
   with zero entries and both sampler extremes (keep none, keep all). *)
let prop_masks =
  QCheck.Test.make ~name:"sampled masks match the reference sampler" ~count:200
    QCheck.(pair (int_range 1 80) int)
    (fun (n, seed) ->
       let st = Random.State.make [| seed |] in
       let weights =
         Array.init n (fun _ ->
             match Random.State.int st 4 with
             | 0 -> 0.
             | 1 -> if Random.State.bool st then 5e-324 else Random.State.float st 1e-200
             | _ -> Random.State.float st 3.)
       in
       let kept_count = Random.State.int st (n + 1) in
       let policy =
         {
           Dropout.tau = 0.99;
           theta_cut = 0.1;
           kept_count;
           power = 1;
           weights;
           expected_fidelity = 1.;
         }
       in
       let rng = Rng.create seed and orng = Oracle.Rng.create seed in
       let kept = Dropout.sample_kept rng policy (fake_plan n) in
       let okept = Oracle.sample_mask orng weights kept_count in
       kept = okept && Rng.bits64 rng = Oracle.Rng.bits64 orng)

(* Keys drawn from a handful of values (−∞ among them) so exact
   (key, tie) duplicates are common, and the first dropped pair forced
   equal to the last kept one: the selection must fall back to the sort
   and pick the sort's set. *)
let prop_tied_masks =
  QCheck.Test.make ~name:"exact boundary ties pick the sort's set" ~count:300
    QCheck.(pair (int_range 2 60) int)
    (fun (n, seed) ->
       let st = Random.State.make [| seed |] in
       let pool = [| neg_infinity; -3.; -1.; -0.5; -0.; 0. |] in
       let keys = Array.init n (fun _ -> pool.(Random.State.int st (Array.length pool))) in
       let ties = Array.init n (fun _ -> float_of_int (Random.State.int st 3) /. 4.) in
       let m = 1 + Random.State.int st (n - 1) in
       let order = Rng.es_order ~keys ~ties in
       keys.(order.(m)) <- keys.(order.(m - 1));
       ties.(order.(m)) <- ties.(order.(m - 1));
       Dropout.kept_of_keys ~keys ~ties m = Oracle.kept_by_sort ~keys ~ties m)

(* Streams through every constructor: [create], a [copy] taken
   mid-stream, [split] children and [of_key]; ≥ 10⁵ draws per case. *)
let prop_rng =
  QCheck.Test.make ~name:"rng streams match the record-state generator" ~count:10
    QCheck.(pair int int64)
    (fun (seed, key) ->
       let same a b k =
         let ok = ref true in
         for _ = 1 to k do
           if Rng.bits64 a <> Oracle.Rng.bits64 b then ok := false
         done;
         !ok
       in
       let a = Rng.create seed and b = Oracle.Rng.create seed in
       let first = same a b 40_000 in
       let ca = Rng.copy a and cb = Oracle.Rng.copy b in
       let copied = same ca cb 20_000 && same a b 10_000 in
       let ka = Rng.split a 4 and kb = Oracle.Rng.split b 4 in
       let children = Array.for_all2 (fun x y -> same x y 5_000) ka kb in
       let keyed = same (Rng.of_key key) (Oracle.Rng.of_key key) 20_000 in
       let derived =
         Rng.uniform a = Oracle.Rng.uniform b
         && Rng.int a 1000 = Oracle.Rng.int b 1000
         && Rng.bool a = Oracle.Rng.bool b
       in
       first && copied && children && keyed && derived)

(* ---- text codecs: the library's against the Printf/Scanf ones ---- *)

(* ±0, the subnormal range, ±max, ±inf and NaNs of both signs; the
   rest of the time a raw 64-bit pattern. *)
let edge_floats =
  [|
    0.; -0.; 0x1p-1074; -0x1p-1074; 0x0.fffffffffffffp-1022; Float.min_float; max_float;
    -.max_float; infinity; neg_infinity; nan; -.nan; Int64.float_of_bits 0x7ff0000000000001L;
    1.; -1.;
  |]

let random_float st =
  if Random.State.int st 4 = 0 then edge_floats.(Random.State.int st (Array.length edge_floats))
  else Int64.float_of_bits (Random.State.bits64 st)

let random_cx st = Cx.make (random_float st) (random_float st)

let random_matrix st =
  let n = 1 + Random.State.int st 5 in
  Mat.init n n (fun _ _ -> random_cx st)

(* Indices are mostly in range, sometimes any int (min_int and max_int
   included): the codec does not check them, [Lint] does. *)
let random_plan st =
  let modes = 1 + Random.State.int st 5 in
  let index () =
    match Random.State.int st 10 with
    | 0 -> Int64.to_int (Random.State.bits64 st)
    | 1 -> if Random.State.bool st then min_int else max_int
    | _ -> Random.State.int st modes
  in
  let element () =
    let row = index () and m = index () and n = index () in
    let c = random_float st and s = random_float st in
    let ere = random_float st and eim = random_float st in
    { Plan.rotation = { Givens.m; n; c; s; ere; eim }; row }
  in
  {
    Plan.modes;
    elements = Array.init (Random.State.int st 8) (fun _ -> element ());
    lambda = Array.init modes (fun _ -> random_cx st);
  }

let same_bits a b = Int64.equal (bits a) (bits b)

let same_matrix a b =
  Mat.dims a = Mat.dims b
  && List.for_all
       (fun (i, j) ->
          let x = Mat.get a i j and y = Mat.get b i j in
          same_bits x.Complex.re y.Complex.re && same_bits x.Complex.im y.Complex.im)
       (List.concat (List.init (Mat.rows a) (fun i -> List.init (Mat.cols a) (fun j -> (i, j)))))

(* A parsed value equals the printed one bit for bit, except that a
   NaN comes back as whatever NaN its text names. *)
let same_value x y = same_bits x y || (Float.is_nan x && Float.is_nan y)

let prop_text_printers =
  QCheck.Test.make ~name:"text printers are byte-identical to Printf" ~count:200 QCheck.int
    (fun seed ->
       let st = Random.State.make [| seed |] in
       let u = random_matrix st and p = random_plan st in
       Unitary.to_string u = Oracle.unitary_to_string u
       && Plan.to_string p = Oracle.plan_to_string p)

let prop_text_roundtrip =
  QCheck.Test.make ~name:"text parsers read printed values back, as Scanf does" ~count:200
    QCheck.int (fun seed ->
        let st = Random.State.make [| seed |] in
        let u = random_matrix st and p = random_plan st in
        let utext = Unitary.to_string u and ptext = Plan.to_string p in
        match
          ( Unitary.of_string utext, Oracle.unitary_of_string utext, Plan.of_string ptext,
            Oracle.plan_of_string ptext )
        with
        | Ok u', Ok ou, Ok p', Ok op ->
          same_matrix u' ou && Oracle.same_plan p' op
          && List.for_all
               (fun (i, j) ->
                  let x = Mat.get u i j and y = Mat.get u' i j in
                  same_value x.Complex.re y.Complex.re && same_value x.Complex.im y.Complex.im)
               (List.concat
                  (List.init (Mat.rows u) (fun i -> List.init (Mat.cols u) (fun j -> (i, j)))))
          && Array.for_all2
               (fun (x : Plan.element) (y : Plan.element) ->
                  x.Plan.row = y.Plan.row
                  && same_value x.Plan.rotation.Givens.c y.Plan.rotation.Givens.c
                  && same_value x.Plan.rotation.Givens.eim y.Plan.rotation.Givens.eim)
               p.Plan.elements p'.Plan.elements
        | _ -> false)

(* Bytes a mutation inserts: mostly the format's own, so mutants stay
   close to valid text. *)
let palette = " \n\t\r-+_.0123456789abcdefxpnirlEXP\255"

let mutate st text =
  let len = String.length text in
  let at () = Random.State.int st (max 1 len) in
  match Random.State.int st 5 with
  | 0 when len > 0 ->
    let b = Bytes.of_string text in
    let i = at () in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)));
    Bytes.to_string b
  | 1 -> String.sub text 0 (at ())
  | 2 ->
    let i = at () in
    String.sub text 0 i
    ^ String.make 1 palette.[Random.State.int st (String.length palette)]
    ^ String.sub text i (len - i)
  | 3 when len > 0 ->
    let i = at () in
    String.sub text 0 i ^ String.sub text (i + 1) (len - i - 1)
  | _ ->
    (* A dimension lie on the header line. *)
    let stop = Option.value ~default:len (String.index_opt text '\n') in
    let lie () =
      [| "0"; "1"; "2"; "3"; "7"; "-1"; "20000"; "3000000"; "2000000000"; "99999999999999999999" |].(
        Random.State.int st 10)
    in
    let header =
      if String.length text > 0 && text.[0] = 'p' then Printf.sprintf "plan %s %s" (lie ()) (lie ())
      else "unitary " ^ lie ()
    in
    header ^ String.sub text stop (len - stop)

(* Never an exception; and whenever the library accepts, Scanf accepts
   and reads the same bits. *)
let prop_text_mutations =
  QCheck.Test.make ~name:"text parsers never raise, and agree with Scanf when they accept"
    ~count:500 QCheck.int (fun seed ->
        let st = Random.State.make [| seed |] in
        let mutants text = List.init 4 (fun _ -> mutate st (mutate st text)) in
        let unitary_ok text =
          match Unitary.of_string text with
          | Ok u -> (match Oracle.unitary_of_string text with Ok o -> same_matrix u o | Error _ -> false)
          | Error _ -> true
          | exception e -> QCheck.Test.fail_reportf "Unitary.of_string raised %s" (Printexc.to_string e)
        in
        let plan_ok text =
          match Plan.of_string text with
          | Ok p -> (match Oracle.plan_of_string text with Ok o -> Oracle.same_plan p o | Error _ -> false)
          | Error _ -> true
          | exception e -> QCheck.Test.fail_reportf "Plan.of_string raised %s" (Printexc.to_string e)
        in
        List.for_all unitary_ok (mutants (Unitary.to_string (random_matrix st)))
        && List.for_all plan_ok (mutants (Plan.to_string (random_plan st))))

(* Random strings over all 256 byte values, as a string body and as an
   object key: byte-identical to the per-byte printer. *)
let prop_json_printer =
  QCheck.Test.make ~name:"JSON strings print byte-identical to the per-byte printer"
    ~count:500
    QCheck.(pair (int_range 0 300) int)
    (fun (len, seed) ->
       let st = Random.State.make [| seed |] in
       let s = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
       let quoted = Oracle.json_string s in
       Bose_util.Json.to_string (Bose_util.Json.Str s) = quoted
       && Bose_util.Json.to_string (Bose_util.Json.Obj [ (s, Bose_util.Json.Null) ])
          = "{" ^ quoted ^ ":null}")

let () =
  Alcotest.run "bose_oracle"
    [
      ( "programs",
        [
          Alcotest.test_case "haar 16/24/32" `Quick test_haar;
          Alcotest.test_case "DS/MC/GS/VS 24" `Quick test_applications;
          Alcotest.test_case "haar 128" `Quick test_haar_128;
          Alcotest.test_case "500-chain schedule" `Quick test_chain_500;
          Alcotest.test_case "row skip: chain 129/333, lattice 144" `Quick test_row_skip;
        ] );
      ( "properties",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_schedule; prop_masks; prop_tied_masks; prop_rng; prop_text_printers;
            prop_text_roundtrip; prop_text_mutations; prop_json_printer;
          ] );
    ]
