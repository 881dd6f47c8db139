(* Shared definitions for the benchmark harness: the paper's four
   benchmark applications at compile scale (24 qumodes, §VII-A Table I)
   and at the exactly-simulable scale used for the distribution-level
   experiments (see DESIGN.md, substitutions). *)

module Rng = Bose_util.Rng
module Json = Bose_util.Json
module Cx = Bose_linalg.Cx
module Lattice = Bose_hardware.Lattice
module Obs = Bose_obs.Obs
open Bosehedral

(* Per-row telemetry: every benchmark row runs inside [Telemetry.row],
   which opens a fresh metrics window and attaches the captured
   [Obs.Report.t] to the row. [Telemetry.flush] (called by bench/main.ml
   on exit) writes all rows to BENCH_TELEMETRY.json — override the path
   with BOSE_BENCH_JSON — so benchmark trajectories carry pass-level
   breakdowns alongside the printed tables. *)
module Telemetry = struct
  type entry = { experiment : string; row : string; report : Obs.Report.t }

  let rows : entry list ref = ref []

  let out_path () =
    match Sys.getenv_opt "BOSE_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_TELEMETRY.json"

  let row ~experiment ~row:label f =
    let was_enabled = Obs.enabled () in
    Obs.reset ();
    Obs.enable ();
    let finish () =
      rows := { experiment; row = label; report = Obs.Report.capture () } :: !rows;
      Obs.reset ();
      if not was_enabled then Obs.disable ()
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e

  let flush () =
    match List.rev !rows with
    | [] -> ()
    | entries ->
      let of_entry e =
        Json.Obj
          [
            ("experiment", Json.Str e.experiment);
            ("row", Json.Str e.row);
            ("report", Obs.Report.to_json e.report);
          ]
      in
      let doc =
        Json.Obj
          [ ("version", Json.Num 1.); ("rows", Json.List (List.map of_entry entries)) ]
      in
      let oc = open_out (out_path ()) in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\n[bench] telemetry for %d rows written to %s\n"
        (List.length entries) (out_path ());
      rows := []
end

type benchmark = {
  name : string;  (** DS / MC / GS / VS *)
  tau : float;  (** Table II accuracy threshold for this benchmark. *)
  instances : (string * Runner.program) list;
}

let graph_program rng ~n ~mean_photons =
  (* Edge probability in the paper's 0.7–0.9 range. *)
  let p = 0.7 +. Rng.float rng 0.2 in
  let g = Bose_apps.Graph.random rng ~n ~p in
  (g, Bose_apps.Encoding.encode ~mean_photons g)

let graph_instances rng ~count ~n ~mean_photons =
  List.init count (fun i ->
      let g, program = graph_program rng ~n ~mean_photons in
      (Printf.sprintf "graph%d(%d edges)" (i + 1) (Bose_apps.Graph.edge_count g), program))

let vibronic_instances rng ~modes ~temperatures =
  let molecule = Bose_apps.Vibronic.synthetic rng ~modes in
  List.map
    (fun t ->
       (Printf.sprintf "%.0fK" t, Bose_apps.Vibronic.program molecule ~temperature:t))
    temperatures

(* The paper's benchmark suite: 24-qumode programs, four instances each.
   Used for compile-only experiments (Tables I and II). *)
let paper_suite ?(instances = 4) () =
  let rng = Rng.create 20240604 in
  let graphs name tau =
    { name; tau; instances = graph_instances rng ~count:instances ~n:24 ~mean_photons:6. }
  in
  [
    graphs "DS" 0.9990;
    graphs "MC" 0.9996;
    graphs "GS" 0.9990;
    {
      name = "VS";
      tau = 0.98;
      instances = vibronic_instances rng ~modes:24 ~temperatures:[ 1000.; 750.; 500.; 250. ];
    };
  ]

(* Simulable-scale suite for the JSD experiments: 8-qumode graphs and a
   6-mode molecule, where the exact lossy output distributions are
   computable. The VS accuracy threshold is scale-matched: a 6-mode
   circuit has ~18× fewer beamsplitters than a 24-mode one, so the
   acceptable algorithmic error shrinks proportionally (EXPERIMENTS.md). *)
let sim_suite ?(instances = 2) () =
  let rng = Rng.create 777 in
  let graphs name tau =
    { name; tau; instances = graph_instances rng ~count:instances ~n:8 ~mean_photons:2.5 }
  in
  [
    graphs "DS" 0.9990;
    graphs "MC" 0.9996;
    graphs "GS" 0.9990;
    {
      name = "VS";
      tau = 0.995;
      instances = vibronic_instances rng ~modes:6 ~temperatures:[ 1000.; 750. ];
    };
  ]

let device_for_program program =
  match Runner.program_modes program with
  | 8 -> Lattice.create ~rows:3 ~cols:3
  | 6 -> Lattice.create ~rows:3 ~cols:2
  | 24 -> Lattice.create ~rows:6 ~cols:6
  | n ->
    (* Smallest 3-row lattice that fits. *)
    Lattice.create ~rows:3 ~cols:((n + 2) / 3)

let losses = [ 0.01; 0.04; 0.07; 0.10 ]

let max_photons_for program = if Runner.program_modes program >= 8 then 5 else 6

let hline width = print_endline (String.make width '-')

let header title =
  print_newline ();
  hline 78;
  Printf.printf "%s\n" title;
  hline 78
