type severity = Error | Warning | Info

type location =
  | Whole
  | Entry of int * int
  | Step of int
  | Gate of int
  | Mode of int
  | Edge of int * int
  | Line of int

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
  hint : string option;
}

let make severity ?hint ?(loc = Whole) ~code message =
  { code; severity; location = loc; message; hint }

let error ?hint ?loc ~code message = make Error ?hint ?loc ~code message
let warning ?hint ?loc ~code message = make Warning ?hint ?loc ~code message
let info ?hint ?loc ~code message = make Info ?hint ?loc ~code message

let is_error d = d.severity = Error

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let promote_warnings =
  List.map (fun d -> if d.severity = Warning then { d with severity = Error } else d)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let plural n noun = Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")

let summary ds =
  Printf.sprintf "%s, %s, %d info"
    (plural (count Error ds) "error")
    (plural (count Warning ds) "warning")
    (count Info ds)

let pp_location fmt = function
  | Whole -> Format.pp_print_string fmt "artifact"
  | Entry (i, j) -> Format.fprintf fmt "entry (%d,%d)" i j
  | Step i -> Format.fprintf fmt "plan step %d" i
  | Gate i -> Format.fprintf fmt "gate %d" i
  | Mode m -> Format.fprintf fmt "mode %d" m
  | Edge (m, n) -> Format.fprintf fmt "edge (%d,%d)" m n
  | Line l -> Format.fprintf fmt "line %d" l

let pp fmt d =
  Format.fprintf fmt "%s[%s] %a: %s" (severity_name d.severity) d.code pp_location
    d.location d.message;
  match d.hint with
  | None -> ()
  | Some h -> Format.fprintf fmt "@,  hint: %s" h

let pp_list fmt ds =
  Format.fprintf fmt "@[<v>";
  List.iter (fun d -> Format.fprintf fmt "%a@," pp d) ds;
  Format.fprintf fmt "%s@]" (summary ds)

(* ------------------------------------------------------------------ *)
(* JSON rendering. *)

module Json = Bose_util.Json

let num n = Json.Num (float_of_int n)

let location_json loc =
  let obj kind fields =
    Json.Obj (("kind", Json.Str kind) :: List.map (fun (k, v) -> (k, num v)) fields)
  in
  match loc with
  | Whole -> obj "artifact" []
  | Entry (i, j) -> obj "entry" [ ("row", i); ("col", j) ]
  | Step i -> obj "step" [ ("index", i) ]
  | Gate i -> obj "gate" [ ("index", i) ]
  | Mode m -> obj "mode" [ ("mode", m) ]
  | Edge (m, n) -> obj "edge" [ ("m", m); ("n", n) ]
  | Line l -> obj "line" [ ("line", l) ]

let to_json ds =
  let diag d =
    Json.Obj
      ([
         ("code", Json.Str d.code);
         ("severity", Json.Str (severity_name d.severity));
         ("location", location_json d.location);
         ("message", Json.Str d.message);
       ]
       @ match d.hint with None -> [] | Some h -> [ ("hint", Json.Str h) ])
  in
  Json.Obj
    [
      ("version", num 1);
      ("diagnostics", Json.List (List.map diag ds));
      ("errors", num (count Error ds));
      ("warnings", num (count Warning ds));
      ("info", num (count Info ds));
    ]
