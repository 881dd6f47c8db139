module Rng = Bose_util.Rng
module Fnv = Bose_util.Fnv
module Text = Bose_util.Artifact_text

let qr = Mat.qr

let ginibre rng n =
  Mat.init n n (fun _ _ ->
      let re, im = Rng.gaussian_pair rng in
      Cx.make (re /. sqrt 2.) (im /. sqrt 2.))

(* Mezzadri's fix: scale the columns of Q by the phases of diag(R) so the
   result is exactly Haar-distributed rather than merely unitary. The
   phases are applied in place with the column kernel. *)
let haar_random rng n =
  let q, r = qr (ginibre rng n) in
  for j = 0 to n - 1 do
    let d = Mat.get r j j in
    if Cx.abs d <> 0. then Mat.scale_col q j (Cx.exp_i (Cx.arg d))
  done;
  q

let random_orthogonal rng n =
  let g = Mat.init n n (fun _ _ -> Cx.re (Rng.gaussian rng)) in
  let q, r = qr g in
  for j = 0 to n - 1 do
    if (Mat.get r j j).re < 0. then Mat.scale_col q j (Cx.re (-1.))
  done;
  q

let random_diagonal_phases rng n =
  let m = Mat.create n n in
  for i = 0 to n - 1 do
    Mat.set m i i (Cx.exp_i (Rng.float rng (2. *. Float.pi)))
  done;
  m

(* Line-oriented text serialization, mirroring Plan's format:
     unitary <n>
     e <re> <im>      (n·n lines, row-major)
   Floats are printed with %h (hex) so the round-trip is bit-exact. *)
let to_string m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Unitary.to_string: square matrices only";
  let buf = Buffer.create (32 + (n * n * (2 + (2 * Text.max_float_bytes)))) in
  Buffer.add_string buf "unitary";
  Text.add_int buf n;
  Buffer.add_char buf '\n';
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let (v : Cx.t) = Mat.get m i j in
      Buffer.add_char buf 'e';
      Text.add_float buf v.re;
      Text.add_float buf v.im;
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf

let save oc m = output_string oc (to_string m)

(* The shortest entry line, "e 0 0\n": a header dimension whose n·n
   entries cannot fit in the rest of the input is refused before the
   matrix is allocated (checked as n rows of n entries, so n·n cannot
   overflow). *)
let min_entry_bytes = 6

let of_text s =
  let r = Text.reader s in
  try
    Text.line r "bad header";
    Text.tag r "unitary";
    let n = Text.int r in
    Text.eol r;
    if n <= 0 then Text.fail r "bad header values";
    Text.reserve r ~lines:n ~min_bytes:min_entry_bytes;
    Text.reserve r ~lines:n ~min_bytes:(n * min_entry_bytes);
    let m = Mat.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Text.line r "bad entry line";
        Text.tag r "e";
        let re = Text.float r in
        let im = Text.float r in
        Text.eol r;
        Mat.set m i j (Cx.make re im)
      done
    done;
    Ok m
  with Text.Malformed (msg, l) -> Error (msg, l)

(* Binary artifact format v2 (docs/SERVING.md). Fixed little-endian
   layout so the disk cache can decode an mmapped object without
   parsing:
     bytes 0..3   magic "BHBU"
     byte  4      format version (0x02)
     bytes 5..7   zero padding
     bytes 8..11  n  (u32 LE)
     bytes 12..15 zero padding (plane payload starts 16-byte aligned
                  in the serialized stream)
     bytes 16..   the two planes (Mat's binary plane codec)
     last 8       FNV-1a 64 over all preceding bytes (u64 LE)
   Text artifacts keep their "unitary" first line, so one byte of
   lookahead distinguishes the formats — [of_string] dispatches on the
   magic, and old cache objects keep loading. *)
let binary_magic = "BHBU"
let binary_format_version = 2
let binary_header_bytes = 16
let max_binary_dim = 1 lsl 20

let binary_size n = binary_header_bytes + (16 * n * n) + 8

let to_binary_string m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Unitary.to_binary_string: square matrices only";
  let buf = Buffer.create (binary_size n) in
  Buffer.add_string buf binary_magic;
  Buffer.add_uint8 buf binary_format_version;
  Buffer.add_string buf "\000\000\000";
  Buffer.add_int32_le buf (Int32.of_int n);
  Buffer.add_int32_le buf 0l;
  Mat.encode_planes buf m;
  Buffer.add_int64_le buf (Fnv.string Fnv.seed (Buffer.contents buf));
  Buffer.contents buf

let has_binary_magic s =
  String.length s >= 4 && String.sub s 0 4 = binary_magic

(* Binary parse errors report line 0 — there are no lines to point at,
   and 0 cannot collide with a 1-based text line number. *)
let check_binary_header ~version ~n ~len =
  if version <> binary_format_version then
    Error (Printf.sprintf "binary unitary: unsupported version %d" version, 0)
  else if n <= 0 || n > max_binary_dim then Error ("binary unitary: bad header values", 0)
  else if len <> binary_size n then Error ("binary unitary: size mismatch", 0)
  else Ok ()

let of_binary_string s =
  let len = String.length s in
  if len < binary_header_bytes + 8 then Error ("binary unitary: truncated", 0)
  else begin
    let version = Char.code s.[4] in
    let n = Int32.to_int (String.get_int32_le s 8) in
    match check_binary_header ~version ~n ~len with
    | Error _ as e -> e
    | Ok () ->
      let body = len - 8 in
      if String.get_int64_le s body <> Fnv.substring Fnv.seed s ~pos:0 ~len:body then
        Error ("binary unitary: checksum mismatch", 0)
      else Ok (Mat.decode_planes_string ~rows:n ~cols:n s ~pos:binary_header_bytes)
  end

let of_bigbytes ba ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim ba then
    invalid_arg "Unitary.of_bigbytes: range out of bounds";
  if len < binary_header_bytes + 8 then Error ("binary unitary: truncated", 0)
  else begin
    let header = Mat.bigbytes_sub_string ba ~pos ~len:binary_header_bytes in
    if String.sub header 0 4 <> binary_magic then Error ("binary unitary: bad magic", 0)
    else begin
      let version = Char.code header.[4] in
      let n = Int32.to_int (String.get_int32_le header 8) in
      match check_binary_header ~version ~n ~len with
      | Error _ as e -> e
      | Ok () ->
        let body = len - 8 in
        let stored =
          String.get_int64_le (Mat.bigbytes_sub_string ba ~pos:(pos + body) ~len:8) 0
        in
        if stored <> Mat.fnv1a64_bigbytes ba ~pos ~len:body then
          Error ("binary unitary: checksum mismatch", 0)
        else
          Ok (Mat.decode_planes_bigbytes ~rows:n ~cols:n ba ~pos:(pos + binary_header_bytes))
    end
  end

let of_string s = if has_binary_magic s then of_binary_string s else of_text s

let load_result ic = of_string (In_channel.input_all ic)

let load ic =
  match load_result ic with
  | Ok m -> m
  | Error (msg, l) -> failwith (Printf.sprintf "Unitary.load: %s (line %d)" msg l)
