(* Bench-regression gate: compare per-row gauge values in
   BENCH_TELEMETRY.json against the committed floors in
   bench/bench_floors.json.

     check_regression [--require GAUGE]... BENCH_TELEMETRY.json bench_floors.json

   Both files are read with the repository's JSON codec
   (Bose_util.Json). A floor whose row is absent from the telemetry is
   reported as SKIP and does not fail the gate: the parallel-scaling
   rows only exist on hosts with enough cores (bench_micro.ml gates
   them on [Domain.recommended_domain_count]), so the speedup floors
   bind on multi-core CI runners without producing false failures on
   single-core boxes. Skipped floors are enumerated in a trailing WARN
   line so CI logs show exactly which floors did not bind. On lanes
   that are supposed to have the cores, pass [--require GAUGE]
   (repeatable): a SKIP on a floor whose gauge is in the required set
   becomes a FAIL instead of silently not binding. A present row whose
   floored gauge is missing or not a number (a NaN gauge is written as
   null) fails, as does a present value below its floor or above its
   ceiling; any FAIL exits 1. *)

module Json = Bose_util.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
       prerr_endline ("check_regression: " ^ msg);
       exit 2)
    fmt

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok v -> v | Error msg -> die "%s: %s" path msg

let list key v = match Json.mem key v with Some (Json.List xs) -> xs | _ -> []
let str key v = Option.bind (Json.mem key v) Json.str

(* [None] when no telemetry row carries this label; otherwise the
   row's gauge, [Some None] when it is missing or not a number. *)
let gauge_value telemetry ~row ~gauge =
  List.find_opt (fun r -> str "row" r = Some row) (list "rows" telemetry)
  |> Option.map (fun r ->
      let report = Option.value ~default:Json.Null (Json.mem "report" r) in
      match List.find_opt (fun g -> str "name" g = Some gauge) (list "gauges" report) with
      | Some g -> Option.bind (Json.mem "value" g) Json.num
      | None -> None)

(* Floors file shape (see bench/bench_floors.json):
   {"version":1,"floors":[{"row":"...","gauge":"...","min":N},...]}
   A lower-is-better gauge (a latency) carries "max" instead of "min":
   a ceiling the measured value must not exceed. *)
type bound = Min of float | Max of float

let floor_of f =
  let row =
    match str "row" f with Some r -> r | None -> die "floors: entry without \"row\""
  in
  let gauge =
    match str "gauge" f with
    | Some g -> g
    | None -> die "floors: row %S has no \"gauge\"" row
  in
  let bound key =
    Option.map
      (fun v ->
         match Json.num v with
         | Some x -> x
         | None -> die "floors: row %S has a non-numeric bound" row)
      (Json.mem key f)
  in
  match (bound "min", bound "max") with
  | Some v, None -> (row, gauge, Min v)
  | None, Some v -> (row, gauge, Max v)
  | Some _, Some _ -> die "floors: row %S has both \"min\" and \"max\"" row
  | None, None -> die "floors: row %S has no \"min\" or \"max\"" row

let usage () =
  prerr_endline
    "usage: check_regression [--require GAUGE]... BENCH_TELEMETRY.json bench_floors.json";
  exit 2

let () =
  let required = ref [] and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--require" :: g :: rest ->
      required := g :: !required;
      parse rest
    | [ "--require" ] ->
      prerr_endline "check_regression: --require needs a gauge name";
      usage ()
    | a :: rest ->
      positional := a :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let telemetry_path, floors_path =
    match List.rev !positional with
    | [ t; f ] -> (t, f)
    | _ -> usage ()
  in
  let telemetry = read_json telemetry_path in
  let floors = List.map floor_of (list "floors" (read_json floors_path)) in
  if floors = [] then die "no floors parsed from %s" floors_path;
  let required_gauge g = List.mem g !required in
  let failed = ref 0 and skipped = ref 0 in
  let skipped_floors = ref [] in
  List.iter
    (fun (row, gauge, bound) ->
       match (gauge_value telemetry ~row ~gauge, bound) with
       | None, _ when required_gauge gauge ->
         incr failed;
         Printf.printf "FAIL  %-28s %-24s (row absent but --require %s)\n" row
           gauge gauge
       | None, _ ->
         incr skipped;
         skipped_floors := (row, gauge) :: !skipped_floors;
         Printf.printf "SKIP  %-28s %-24s (row absent: not enough cores?)\n" row gauge
       | Some None, _ ->
         incr failed;
         Printf.printf "FAIL  %-28s %-24s (gauge missing or not a number)\n" row gauge
       | Some (Some v), Min min_v when v >= min_v ->
         Printf.printf "OK    %-28s %-24s %8.2f >= %.2f\n" row gauge v min_v
       | Some (Some v), Min min_v ->
         incr failed;
         Printf.printf "FAIL  %-28s %-24s %8.2f <  %.2f\n" row gauge v min_v
       | Some (Some v), Max max_v when v <= max_v ->
         Printf.printf "OK    %-28s %-24s %8.2f <= %.2f\n" row gauge v max_v
       | Some (Some v), Max max_v ->
         incr failed;
         Printf.printf "FAIL  %-28s %-24s %8.2f >  %.2f\n" row gauge v max_v)
    floors;
  Printf.printf "%d floors: %d failed, %d skipped\n" (List.length floors) !failed
    !skipped;
  if !skipped_floors <> [] then
    Printf.printf "WARN  floors that did not bind: %s\n"
      (String.concat ", "
         (List.rev_map (fun (row, gauge) -> row ^ "/" ^ gauge) !skipped_floors));
  if !failed > 0 then exit 1
