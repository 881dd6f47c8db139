(* Bench-regression gate: compare per-row gauge values in
   BENCH_TELEMETRY.json against the committed floors in
   bench/bench_floors.json.

     check_regression [--require GAUGE]... BENCH_TELEMETRY.json bench_floors.json

   Dependency-free on purpose — it string-scans the two compact JSON
   files (both are machine-written by this repo, never hand-edited)
   instead of pulling in a parser. A floor whose row or gauge is absent
   from the telemetry is reported as SKIP and does not fail the gate:
   the parallel-scaling rows only exist on hosts with enough cores
   (bench_micro.ml gates them on [Domain.recommended_domain_count]), so
   the speedup floors bind on multi-core CI runners without producing
   false failures on single-core boxes. Skipped floors are enumerated
   in a trailing WARN line so CI logs show exactly which floors did not
   bind. On lanes that are supposed to have the cores, pass
   [--require GAUGE] (repeatable): a SKIP on a floor whose gauge is in
   the required set becomes a FAIL instead of silently not binding. A
   present value below its floor, or above its ceiling, exits 1. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let find_from s pos sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go (max 0 pos)

let parse_float_at s pos =
  let n = String.length s in
  let j = ref pos in
  while
    !j < n
    && (match s.[!j] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false)
  do
    incr j
  done;
  if !j = pos then None else float_of_string_opt (String.sub s pos (!j - pos))

(* The telemetry writer emits one object per row containing
   ["row":"<label>", ... "gauges":[{"name":...,"value":...},...]]; the
   slice between this row's label and the next row label (or EOF) is
   exactly this row's report. *)
let gauge_value telemetry ~row ~gauge =
  let anchor = Printf.sprintf "\"row\":%S" row in
  match find_from telemetry 0 anchor with
  | None -> None
  | Some i ->
    let after = i + String.length anchor in
    let slice_end =
      match find_from telemetry after "\"row\":\"" with
      | Some j -> j
      | None -> String.length telemetry
    in
    let needle = Printf.sprintf "\"name\":%S,\"value\":" gauge in
    (match find_from telemetry after needle with
     | Some k when k < slice_end -> parse_float_at telemetry (k + String.length needle)
     | Some _ | None -> None)

(* Floors file shape (see bench/bench_floors.json):
   {"version":1,"floors":[{"row":"...","gauge":"...","min":N},...]}
   A lower-is-better gauge (a latency) carries "max" instead of "min":
   a ceiling the measured value must not exceed. *)
type bound = Min of float | Max of float

let parse_floors s =
  let rec go pos acc =
    match find_from s pos "{\"row\":\"" with
    | None -> List.rev acc
    | Some i ->
      let start = i + 8 in
      let row_end = String.index_from s start '"' in
      let row = String.sub s start (row_end - start) in
      let gauge_key = "\"gauge\":\"" in
      let gi =
        match find_from s row_end gauge_key with
        | Some g -> g + String.length gauge_key
        | None -> failwith (Printf.sprintf "floors: row %S has no \"gauge\"" row)
      in
      let gauge_end = String.index_from s gi '"' in
      let gauge = String.sub s gi (gauge_end - gi) in
      let entry_end = String.index_from s gauge_end '}' in
      let key name =
        match find_from s gauge_end (Printf.sprintf "\"%s\":" name) with
        | Some k when k < entry_end -> Some (k + String.length name + 3)
        | Some _ | None -> None
      in
      let value at =
        match parse_float_at s at with
        | Some v -> v
        | None -> failwith (Printf.sprintf "floors: row %S has a non-numeric bound" row)
      in
      let bound =
        match (key "min", key "max") with
        | Some at, None -> Min (value at)
        | None, Some at -> Max (value at)
        | Some _, Some _ ->
          failwith (Printf.sprintf "floors: row %S has both \"min\" and \"max\"" row)
        | None, None -> failwith (Printf.sprintf "floors: row %S has no \"min\" or \"max\"" row)
      in
      go entry_end ((row, gauge, bound) :: acc)
  in
  go 0 []

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
  let telemetry = read_file telemetry_path in
  let floors = parse_floors (read_file floors_path) in
  if floors = [] then begin
    Printf.eprintf "check_regression: no floors parsed from %s\n" floors_path;
    exit 2
  end;
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
       | Some v, Min min_v when v >= min_v ->
         Printf.printf "OK    %-28s %-24s %8.2f >= %.2f\n" row gauge v min_v
       | Some v, Min min_v ->
         incr failed;
         Printf.printf "FAIL  %-28s %-24s %8.2f <  %.2f\n" row gauge v min_v
       | Some v, Max max_v when v <= max_v ->
         Printf.printf "OK    %-28s %-24s %8.2f <= %.2f\n" row gauge v max_v
       | Some v, Max max_v ->
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
