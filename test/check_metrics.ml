(* Smoke check for `bosec --metrics-out` (wired into `dune runtest` by
   test/dune): parse the emitted JSON with the report reader and require
   one span per compiler pass and the headline counters to be nonzero.
   Exits nonzero with a diagnostic on any violation. *)

module Json = Bose_util.Json
module Report = Bose_obs.Obs.Report

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("check_metrics: " ^ msg); exit 1) fmt

let () =
  if Array.length Sys.argv <> 2 then fail "usage: check_metrics FILE";
  let path = Sys.argv.(1) in
  let text =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Result.bind (Json.parse text) Report.of_json with
  | Error msg -> fail "%s is not a valid metrics report: %s" path msg
  | Ok report ->
    List.iter
      (fun name ->
         match Report.span report name with
         | Some s when s.Report.count > 0 -> ()
         | Some _ -> fail "span %S has zero count" name
         | None -> fail "missing compiler-pass span %S" name)
      [ "compile"; "compile.map"; "compile.decompose"; "compile.dropout" ];
    List.iter
      (fun name ->
         match Report.counter report name with
         | Some v when v > 0 -> ()
         | Some _ -> fail "counter %S is zero" name
         | None -> fail "missing counter %S" name)
      [ "decomp.eliminations"; "decomp.beamsplitters"; "dropout.dropped_gates" ];
    Printf.printf "check_metrics: ok (%d spans, %d counters)\n"
      (List.length report.Report.spans)
      (List.length report.Report.counters)
