(* [Printf "%h"] calls this runtime primitive with precision -6 ("as
   many digits as needed") and sign style '-'; calling it directly
   skips the format interpreter and its intermediate buffer. *)
external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

let add_int buf n =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int n)

let add_float buf x =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (hexstring_of_float x (-6) '-')

(* " -0x1.fffffffffffffp-1022" *)
let max_float_bytes = 25

exception Malformed of string * int

type reader = { s : string; mutable pos : int; mutable line : int; mutable what : string }

let reader s = { s; pos = 0; line = 0; what = "" }
let fail r msg = raise (Malformed (msg, r.line))

let line r what =
  r.line <- r.line + 1;
  r.what <- what;
  if r.pos >= String.length r.s then fail r "truncated input"

let tag r t =
  let n = String.length t in
  if r.pos + n > String.length r.s then fail r r.what;
  for i = 0 to n - 1 do
    if String.unsafe_get r.s (r.pos + i) <> String.unsafe_get t i then fail r r.what
  done;
  r.pos <- r.pos + n

(* The one space before a field. *)
let sep r =
  if r.pos >= String.length r.s || String.unsafe_get r.s r.pos <> ' ' then fail r r.what;
  r.pos <- r.pos + 1

let rec dec_run s i len =
  if i < len && (match String.unsafe_get s i with '0' .. '9' -> true | _ -> false) then
    dec_run s (i + 1) len
  else i

let rec hex_run s i len =
  if
    i < len
    && match String.unsafe_get s i with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
  then hex_run s (i + 1) len
  else i

let int r =
  sep r;
  let s = r.s and len = String.length r.s in
  let start = r.pos in
  let first = if start < len && String.unsafe_get s start = '-' then start + 1 else start in
  let stop = dec_run s first len in
  if stop = first then fail r r.what;
  (* Accumulated negatively, so min_int parses and any overflow shows,
     as with [int_of_string]. *)
  let v = ref 0 in
  for i = first to stop - 1 do
    let d = Char.code (String.unsafe_get s i) - 48 in
    if !v < (min_int + d) / 10 then fail r r.what;
    v := (10 * !v) - d
  done;
  if first = start && !v = min_int then fail r r.what;
  r.pos <- stop;
  if first > start then !v else - !v

(* The end of the hex float starting at [i], or -1: the subset of
   Scanf's "%h" grammar described in the interface. No '_': Scanf
   drops those from its token, so the bytes here are exactly the token
   it would read. Whatever follows must be a separator, which the next
   [sep] or [eol] checks. *)
let hex_float_end s i len =
  let i = if i < len && String.unsafe_get s i = '-' then i + 1 else i in
  if i + 2 < len && String.unsafe_get s i = '0' && String.unsafe_get s (i + 1) = 'x' then begin
    let j = hex_run s (i + 2) len in
    let j =
      if j = i + 2 then -1
      else if j < len && String.unsafe_get s j = '.' then
        let k = hex_run s (j + 1) len in
        if k = j + 1 then -1 else k
      else j
    in
    if j >= 0 && j < len && String.unsafe_get s j = 'p' then
      let k =
        if j + 1 < len && (match String.unsafe_get s (j + 1) with '+' | '-' -> true | _ -> false)
        then j + 2
        else j + 1
      in
      let e = dec_run s k len in
      if e = k then -1 else e
    else j
  end
  else
    let word w =
      let n = String.length w in
      if i + n <= len && String.sub s i n = w then i + n else -1
    in
    match if i < len then String.unsafe_get s i else ' ' with
    | 'n' -> word "nan"
    | 'i' -> word "infinity"
    | _ -> -1

let float r =
  sep r;
  let start = r.pos in
  let stop = hex_float_end r.s start (String.length r.s) in
  if stop < 0 then fail r r.what;
  r.pos <- stop;
  match float_of_string_opt (String.sub r.s start (stop - start)) with
  | Some x -> x
  | None -> fail r r.what

let eol r =
  if r.pos < String.length r.s then
    if String.unsafe_get r.s r.pos = '\n' then r.pos <- r.pos + 1 else fail r r.what

let reserve r ~lines ~min_bytes =
  (* +1: the last line may lack its newline. *)
  if lines < 0 || lines > (String.length r.s - r.pos + 1) / min_bytes then
    fail r "header exceeds the input"
