type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- *)
(* Printer.                                                          *)

(* The spans between bytes that need an escape go out in one blit
   each. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

let add_num buf x =
  if Float.is_integer x && Float.abs x < 9.007199254740992e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else begin
    let s15 = Printf.sprintf "%.15g" x in
    Buffer.add_string buf
      (if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x)
  end

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x ->
      if Float.is_finite x then add_num buf x else Buffer.add_string buf "null"
    | Str s -> add_escaped buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
           if i > 0 then Buffer.add_char buf ',';
           go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
           if i > 0 then Buffer.add_char buf ',';
           add_escaped buf k;
           Buffer.add_char buf ':';
           go x)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Parser: recursive descent, one value per input.                   *)

exception Fail of string * int

(* Arrays and objects recurse once per level, so the depth bound is
   what keeps one hostile line from overflowing the stack. *)
let max_depth = 512

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  (* Plain bytes are blitted a run at a time, up to the next quote or
     backslash. *)
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let i = ref !pos in
      while !i < len && (match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true) do
        incr i
      done;
      Buffer.add_substring buf s !pos (!i - !pos);
      pos := !i;
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some _ ->
        advance ();
        (match peek () with
         | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
         | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
         | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
         | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
         | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
         | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
         | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
         | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
         | Some 'u' ->
           advance ();
           let c =
             match (try Some (hex4 ()) with Failure _ -> None) with
             | Some c -> c
             | None -> fail "bad \\u escape"
           in
           (* UTF-8 encode the BMP code point (surrogates pass through
              as-is — the protocol never emits them). *)
           if c < 0x80 then Buffer.add_char buf (Char.chr c)
           else if c < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end;
           go ()
         | _ -> fail "bad escape")
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('[' | '{') when depth = max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let pair () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let items = ref [ pair () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := pair () :: !items;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !items)
      end
    | Some _ -> Num (parse_number ())
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after value";
    Ok v
  with Fail (msg, at) -> Error (Printf.sprintf "%s (at byte %d)" msg at)

(* ---------------------------------------------------------------- *)

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num x -> Some x | _ -> None

let int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e9 -> Some (int_of_float x)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
