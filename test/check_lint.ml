(* Smoke assertion over `bosec check` output (test/dune generates
   lint_smoke.out by checking a freshly compiled 8-mode plan against
   its replay reference): the run must end with a clean summary line.
   Mirrors check_metrics.ml — a grep with a real exit code. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

(* [plan] with its first rotation's first qumode set to 9. *)
let break_plan plan =
  match String.split_on_char '\n' plan with
  | header :: first :: rest ->
    (match String.split_on_char ' ' first with
     | "r" :: row :: _m :: fields ->
       String.concat "\n" (header :: String.concat " " ("r" :: row :: "9" :: fields) :: rest)
     | _ -> failwith "check_lint: the plan's first rotation line is malformed")
  | _ -> failwith "check_lint: the plan has no rotation"

let () =
  match Sys.argv with
  | [| _; "--break-plan"; src; dst |] ->
    let oc = open_out_bin dst in
    output_string oc (break_plan (read src));
    close_out oc
  | args when Array.length args > 2 && args.(1) = "--broken" ->
    (* broken_*.out: `bosec check`/`analyze` on an 8-mode plan whose
       first rotation names qumode 9, with and without --tau. The dune
       rules already pinned exit code 1; each must report BH0403. *)
    Array.iter
      (fun path ->
         let body = read path in
         List.iter
           (fun needle ->
              if not (contains ~needle body) then begin
                Printf.eprintf "check_lint: %s lacks %s:\n%s" path needle body;
                exit 1
              end)
           [ "BH0403"; "invalid qumode pair (9,"; "1 error" ])
      (Array.sub args 2 (Array.length args - 2));
    print_endline "check_lint: ok (a broken plan is BH0403, exit 1, with or without --tau)"
  | [| _; "--usage"; path |] ->
    (* check_usage.out: stderr of `bosec check` with no inputs. The
       dune rule already pinned exit code 2; here we pin the hint. *)
    let body = read path in
    if not (contains ~needle:"nothing to check" body) then begin
      Printf.eprintf "check_lint: %s lacks the usage hint:\n%s" path body;
      exit 1
    end;
    print_endline "check_lint: ok (bosec check with no inputs exits 2 with a hint)"
  | [| _; "--analyze"; path |] ->
    (* analyze_smoke.out: `bosec analyze` on the 8-mode smoke plan. The
       report JSON line must carry the dataflow fields and the lint
       summary must be clean. *)
    let body = read path in
    let want =
      [
        "\"depth\"";
        "\"fronts\"";
        "\"liveness\"";
        "\"fidelity\"";
        "\"transmission\"";
        "0 errors, 0 warnings, 0 info";
      ]
    in
    List.iter
      (fun needle ->
         if not (contains ~needle body) then begin
           Printf.eprintf "check_lint: %s lacks %s:\n%s" path needle body;
           exit 1
         end)
      want;
    print_endline "check_lint: ok (bosec analyze reports depth/liveness/budgets, 0 errors)"
  | [| _; "--disable-typo"; err_path; out_path |] ->
    (* disable_typo.{err,out}: an unknown --disable code must warn on
       stderr without changing the clean verdict (the dune rule already
       pinned exit code 0). *)
    let err = read err_path in
    if not (contains ~needle:"matches no known diagnostic code" err) then begin
      Printf.eprintf "check_lint: %s lacks the unknown-disable warning:\n%s" err_path
        err;
      exit 1
    end;
    let out = read out_path in
    if not (contains ~needle:"0 errors, 0 warnings, 0 info" out) then begin
      Printf.eprintf "check_lint: %s is not a clean check:\n%s" out_path out;
      exit 1
    end;
    print_endline "check_lint: ok (unknown --disable warns without changing the verdict)"
  | [| _; "--targets"; path |] ->
    (* targets_list.out: `bosec targets` must list every built-in — a
       registry regression (or a renamed target) fails runtest here. *)
    let body = read path in
    List.iter
      (fun name ->
         if not (contains ~needle:name body) then begin
           Printf.eprintf "check_lint: %s does not list target %s:\n%s" path name body;
           exit 1
         end)
      [ "zigzag"; "timebin-loop"; "orca-shallow" ];
    print_endline "check_lint: ok (bosec targets lists all built-ins)"
  | [| _; path |] ->
    let body = read path in
    if not (contains ~needle:"0 errors, 0 warnings, 0 info" body) then begin
      Printf.eprintf "check_lint: %s does not report a clean check:\n%s" path body;
      exit 1
    end;
    print_endline "check_lint: ok (bosec check reports 0 errors)"
  | _ ->
    prerr_endline
      "usage: check_lint [--usage | --analyze | --disable-typo ERR OUT | --targets] FILE\n\
      \       check_lint --break-plan IN OUT | --broken FILE...";
    exit 2
