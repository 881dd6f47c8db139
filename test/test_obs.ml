(* Tests for the bose_obs telemetry layer: span nesting, counter and
   gauge accumulation, histogram bucketing, JSON round-trip of the
   report, and the no-observable-effect guarantee (a compiler run with
   telemetry enabled produces byte-identical circuits). *)

module Obs = Bose_obs.Obs
module Rng = Bose_util.Rng
module Json = Bose_util.Json
module Unitary = Bose_linalg.Unitary
module Lattice = Bose_hardware.Lattice
module Circuit = Bose_circuit.Circuit
open Bosehedral

(* Every test runs against the same global registry: start from a clean
   window and leave recording off for the next test. *)
let with_clean_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* ------------------------------------------------------------ counters *)

let test_counter_accumulation () =
  with_clean_obs (fun () ->
      let c = Obs.Counter.make "test.counter_acc" in
      Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
      Obs.Counter.incr c;
      Obs.Counter.incr c;
      Obs.Counter.incr c ~by:5;
      Alcotest.(check int) "accumulates" 7 (Obs.Counter.value c);
      let c' = Obs.Counter.make "test.counter_acc" in
      Obs.Counter.incr c';
      Alcotest.(check int) "make is idempotent per name" 8 (Obs.Counter.value c))

let test_counter_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.Counter.make "test.counter_off" in
  Obs.Counter.incr c ~by:100;
  Alcotest.(check int) "disabled incr does not count" 0 (Obs.Counter.value c)

(* -------------------------------------------------------------- gauges *)

let test_gauge_set_and_max () =
  with_clean_obs (fun () ->
      let g = Obs.Gauge.make "test.gauge" in
      Alcotest.(check (option (float 0.))) "unset" None (Obs.Gauge.value g);
      Obs.Gauge.set g 3.5;
      Alcotest.(check (option (float 0.))) "set" (Some 3.5) (Obs.Gauge.value g);
      Obs.Gauge.set g 1.0;
      Alcotest.(check (option (float 0.))) "set overwrites" (Some 1.0) (Obs.Gauge.value g);
      let m = Obs.Gauge.make "test.gauge_max" in
      Obs.Gauge.observe_max m 2.;
      Obs.Gauge.observe_max m 7.;
      Obs.Gauge.observe_max m 4.;
      Alcotest.(check (option (float 0.))) "keeps max" (Some 7.) (Obs.Gauge.value m);
      Obs.reset ();
      Alcotest.(check (option (float 0.))) "reset clears" None (Obs.Gauge.value g))

(* ---------------------------------------------------------- histograms *)

let test_histogram_buckets () =
  with_clean_obs (fun () ->
      let h = Obs.Histo.make "test.histo" ~bounds:[| 0.1; 1.0 |] in
      List.iter (Obs.Histo.observe h) [ 0.05; 0.1; 0.5; 2.0; 3.0 ];
      Alcotest.(check int) "total" 5 (Obs.Histo.total h);
      let r = Obs.Report.capture () in
      match List.find_opt (fun hh -> hh.Obs.Report.name = "test.histo") r.Obs.Report.histograms with
      | None -> Alcotest.fail "histogram missing from report"
      | Some hh ->
        Alcotest.(check (array int)) "bucket counts (<=0.1, <=1.0, overflow)"
          [| 2; 1; 2 |] hh.Obs.Report.counts;
        Alcotest.(check (float 1e-9)) "sum" 5.65 hh.Obs.Report.sum)

let test_histogram_bad_bounds () =
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument "Obs.Histo.make: bounds must be strictly increasing")
    (fun () -> ignore (Obs.Histo.make "test.histo_bad" ~bounds:[| 1.0; 1.0 |]))

(* --------------------------------------------------------------- spans *)

let test_span_nesting () =
  with_clean_obs (fun () ->
      let result =
        Obs.Span.with_ "test.outer" (fun () ->
            let x = Obs.Span.with_ "test.inner" (fun () -> 21) in
            let y = Obs.Span.with_ "test.inner" (fun () -> 21) in
            x + y)
      in
      Alcotest.(check int) "value passes through" 42 result;
      let r = Obs.Report.capture () in
      match (Obs.Report.span r "test.outer", Obs.Report.span r "test.inner") with
      | Some outer, Some inner ->
        Alcotest.(check int) "outer count" 1 outer.Obs.Report.count;
        Alcotest.(check int) "inner count" 2 inner.Obs.Report.count;
        Alcotest.(check int) "outer depth" 0 outer.Obs.Report.depth;
        Alcotest.(check int) "inner depth" 1 inner.Obs.Report.depth;
        Alcotest.(check bool) "inner time within outer" true
          (inner.Obs.Report.total_s <= outer.Obs.Report.total_s +. 1e-9)
      | _ -> Alcotest.fail "span missing from report")

let test_span_survives_exception () =
  with_clean_obs (fun () ->
      (try Obs.Span.with_ "test.raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      let r = Obs.Report.capture () in
      (match Obs.Report.span r "test.raiser" with
       | Some s -> Alcotest.(check int) "span closed despite raise" 1 s.Obs.Report.count
       | None -> Alcotest.fail "span missing after exception");
      (* Nesting depth must be balanced again: a fresh top-level span
         reports depth 0. *)
      Obs.Span.with_ "test.after_raise" (fun () -> ());
      let r = Obs.Report.capture () in
      match Obs.Report.span r "test.after_raise" with
      | Some s -> Alcotest.(check int) "depth rebalanced" 0 s.Obs.Report.depth
      | None -> Alcotest.fail "follow-up span missing")

let test_span_disabled_is_identity () =
  Obs.reset ();
  Obs.disable ();
  let v = Obs.Span.with_ "test.disabled_span" (fun () -> 99) in
  Alcotest.(check int) "value" 99 v;
  let r = Obs.Report.capture () in
  Alcotest.(check bool) "no span recorded" true
    (Obs.Report.span r "test.disabled_span" = None)

(* ----------------------------------------------------- JSON round-trip *)

(* Reports travel as JSON text: render, parse, decode. *)
let read text = Result.bind (Json.parse text) Obs.Report.of_json
let reread r = read (Json.to_string (Obs.Report.to_json r))

let test_json_roundtrip () =
  with_clean_obs (fun () ->
      let c = Obs.Counter.make "test.rt_counter" in
      Obs.Counter.incr c ~by:12345;
      let g = Obs.Gauge.make "test.rt_gauge" in
      Obs.Gauge.set g 0.123456789012345678;
      let non_finite = [ "test.rt_nan"; "test.rt_inf" ] in
      Obs.Gauge.set (Obs.Gauge.make "test.rt_nan") Float.nan;
      Obs.Gauge.set (Obs.Gauge.make "test.rt_inf") Float.infinity;
      let h = Obs.Histo.make "test.rt_histo" ~bounds:[| 0.5; 1.5 |] in
      Obs.Histo.observe h 0.25;
      Obs.Histo.observe h 10.;
      Obs.Span.with_ "test.rt_span" (fun () ->
          Obs.Span.with_ "test.rt_span.child" (fun () -> ()));
      let r = Obs.Report.capture () in
      match reread r with
      | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg)
      | Ok r' ->
        (* Non-finite values render as null and read back as nan. *)
        List.iter
          (fun name ->
             Alcotest.(check bool) (name ^ " reads back as nan") true
               (Option.fold ~none:false ~some:Float.is_nan (Obs.Report.gauge r' name)))
          non_finite;
        let finite (t : Obs.Report.t) =
          let gauges = List.filter (fun (n, _) -> not (List.mem n non_finite)) t.gauges in
          { t with gauges }
        in
        Alcotest.(check bool) "round-trip is exact (incl. finite floats)" true
          (finite r = finite r'))

let test_json_rejects_garbage () =
  let bad input = match read input with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "not json" true (bad "hello");
  Alcotest.(check bool) "missing fields" true (bad "{\"version\":1}");
  Alcotest.(check bool) "wrong version" true
    (bad "{\"version\":2,\"spans\":[],\"counters\":[],\"gauges\":[],\"histograms\":[]}");
  Alcotest.(check bool) "trailing garbage" true
    (bad "{\"version\":1,\"spans\":[],\"counters\":[],\"gauges\":[],\"histograms\":[]}x")

let test_json_escaping () =
  with_clean_obs (fun () ->
      let c = Obs.Counter.make "test.\"quoted\\name\"\n" in
      Obs.Counter.incr c;
      let r = Obs.Report.capture () in
      match reread r with
      | Error msg -> Alcotest.fail ("escaped round-trip failed: " ^ msg)
      | Ok r' ->
        Alcotest.(check (option int)) "escaped name survives"
          (Some 1)
          (Obs.Report.counter r' "test.\"quoted\\name\"\n"))

(* ------------------------------------- telemetry has no observable effect *)

(* Compile the same program twice — telemetry off, then on — and require
   byte-identical results: same plan, same policy, same per-shot
   circuits. Telemetry must never touch RNG streams or control flow. *)
let compile_once () =
  let rng = Rng.create 20240806 in
  let u = Unitary.haar_random rng 8 in
  let device = Lattice.create ~rows:3 ~cols:3 in
  let compiled = Compiler.compile ~rng ~device ~config:Config.Full_opt ~tau:0.99 u in
  let circuits = List.init 5 (fun _ -> Compiler.shot_circuit rng compiled) in
  (compiled, circuits)

let test_disabled_and_enabled_runs_identical () =
  Obs.reset ();
  Obs.disable ();
  let compiled_off, circuits_off = compile_once () in
  let r = Obs.Report.capture () in
  Alcotest.(check bool) "disabled run records nothing" true (Obs.Report.is_empty r);
  let compiled_on, circuits_on =
    with_clean_obs (fun () -> compile_once ())
  in
  Alcotest.(check bool) "plans identical" true
    (compiled_off.Compiler.plan = compiled_on.Compiler.plan);
  Alcotest.(check bool) "policies identical" true
    (compiled_off.Compiler.policy = compiled_on.Compiler.policy);
  List.iter2
    (fun a b ->
       Alcotest.(check bool) "shot circuits byte-identical" true
         (Circuit.gates a = Circuit.gates b))
    circuits_off circuits_on

let test_enabled_compile_records_pass_spans () =
  let report =
    with_clean_obs (fun () ->
        ignore (compile_once ());
        Obs.Report.capture ())
  in
  List.iter
    (fun name ->
       match Obs.Report.span report name with
       | Some s ->
         Alcotest.(check bool) (name ^ " ran") true (s.Obs.Report.count > 0)
       | None -> Alcotest.fail ("missing pass span " ^ name))
    [ "compile"; "compile.embed"; "compile.map"; "compile.decompose"; "compile.dropout" ];
  List.iter
    (fun name ->
       match Obs.Report.counter report name with
       | Some v -> Alcotest.(check bool) (name ^ " nonzero") true (v > 0)
       | None -> Alcotest.fail ("missing counter " ^ name))
    [ "decomp.eliminations"; "decomp.beamsplitters"; "dropout.dropped_gates";
      "circuit.beamsplitters_emitted"; "map.polish_trials" ]

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "accumulation" `Quick test_counter_accumulation;
          Alcotest.test_case "disabled is a no-op" `Quick test_counter_disabled_is_noop;
        ] );
      ( "gauges",
        [ Alcotest.test_case "set and observe_max" `Quick test_gauge_set_and_max ] );
      ( "histograms",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "bad bounds rejected" `Quick test_histogram_bad_bounds;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "disabled is identity" `Quick test_span_disabled_is_identity;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "name escaping" `Quick test_json_escaping;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "off/on runs byte-identical" `Quick
            test_disabled_and_enabled_runs_identical;
          Alcotest.test_case "pass spans recorded" `Quick
            test_enabled_compile_records_pass_spans;
        ] );
    ]
