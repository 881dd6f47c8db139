module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Givens = Bose_linalg.Givens
module Fnv = Bose_util.Fnv
module Text = Bose_util.Artifact_text
module Gate = Bose_circuit.Gate
module Circuit = Bose_circuit.Circuit
module Obs = Bose_obs.Obs

let c_bs_emitted = Obs.Counter.make "circuit.beamsplitters_emitted"
let c_bs_dropped = Obs.Counter.make "circuit.beamsplitters_dropped"

type element = { rotation : Givens.rotation; row : int }

type t = { modes : int; elements : element array; lambda : Cx.t array }

let rotation_count t = Array.length t.elements

let angles t = Array.map (fun e -> Float.abs (Givens.theta e.rotation)) t.elements

let small_angle_count t ~threshold =
  let a = angles t in
  Array.fold_left (fun acc x -> if x < threshold then acc + 1 else acc) 0 a

(* Replay Λ·T_K⋯T_1 into [dst], which must be modes×modes. Shared by
   the allocating [reconstruct] and the workspace-backed [fidelity].

   [dst] holds the transpose during the replay (Λ is diagonal, so it
   starts out equal to its transpose): each right-multiplication by T
   is one unit-stride rotation of a row pair
   ([Mat.rot_cols_t_transposed]), and one in-place transpose at the end
   puts the result back. Every entry gets the same arithmetic as a
   column rotation of [dst] itself. *)
let reconstruct_into ?kept ~dst t =
  (match kept with
   | Some k when Array.length k <> Array.length t.elements ->
     invalid_arg "Plan.reconstruct: kept length mismatch"
   | Some _ | None -> ());
  Mat.fill_zero dst;
  Array.iteri (fun i lam -> Mat.set dst i i lam) t.lambda;
  (* U = Λ·T_K⋯T_1: right-multiply by T_K first, down to T_1. *)
  for i = Array.length t.elements - 1 downto 0 do
    let r = t.elements.(i).rotation in
    let { Givens.m; n; c; s; ere; eim } =
      match kept with Some k when not k.(i) -> Givens.drop_mixing r | Some _ | None -> r
    in
    Mat.rot_cols_t_transposed dst ~m ~n ~c ~s ~ere ~eim
  done;
  Mat.transpose_inplace dst

let reconstruct ?kept t =
  let u = Mat.create t.modes t.modes in
  reconstruct_into ?kept ~dst:u t;
  u

(* With [?ws], the replay target is the workspace's [Mat.Slot.replay]
   scratch ([Mat.Slot.elimination] belongs to the elimination engines),
   so the dropout search's many fidelity probes allocate no matrices
   after the first. *)
let fidelity ?ws ?kept t u =
  match ws with
  | None -> Mat.unitary_fidelity (reconstruct ?kept t) u
  | Some ws ->
    let dst = Mat.scratch ~slot:Mat.Slot.replay ws t.modes t.modes in
    reconstruct_into ?kept ~dst t;
    Mat.unitary_fidelity dst u

type mzi_style = Tunable | Fixed_fifty_fifty

let to_circuit ?(style = Tunable) ?kept ?(prelude = []) t =
  (match kept with
   | Some k when Array.length k <> Array.length t.elements ->
     invalid_arg "Plan.to_circuit: kept length mismatch"
   | Some _ | None -> ());
  let block =
    match style with Tunable -> Gate.mzi | Fixed_fifty_fifty -> Gate.mzi2
  in
  let c = Circuit.add_all (Circuit.create ~modes:t.modes) prelude in
  let c = ref c in
  Array.iteri
    (fun i { rotation; _ } ->
       let m = rotation.Givens.m and n = rotation.Givens.n in
       let keep = match kept with Some k -> k.(i) | None -> true in
       if keep then begin
         Obs.Counter.incr c_bs_emitted;
         c :=
           Circuit.add_all !c
             (block ~m ~n ~theta:(Givens.theta rotation) ~phi:(Givens.phi rotation))
       end
       else begin
         Obs.Counter.incr c_bs_dropped;
         c := Circuit.add !c (Gate.Phase (m, Givens.phi rotation))
       end)
    t.elements;
  Array.iteri (fun i lam -> c := Circuit.add !c (Gate.Phase (i, Cx.arg lam))) t.lambda;
  !c

(* Line-oriented text serialization:
     plan <modes> <rotations>
     r <row> <m> <n> <c> <s> <ere> <eim>   (one per rotation, in order)
     l <re> <im>                           (one per Λ entry)
   Rotations are stored in their kernel form (cos θ, sin θ, e^{iφ}) —
   the same four numbers replay consumes — and floats are printed with
   %h (hex floats) so the roundtrip is bit-exact. *)
let to_string t =
  let count = Array.length t.elements in
  (* Row and qumode indices are below [modes]. *)
  let int_bytes = 1 + String.length (string_of_int t.modes) in
  let buf =
    Buffer.create
      (64
       + (count * (2 + (3 * int_bytes) + (4 * Text.max_float_bytes)))
       + (t.modes * (2 + (2 * Text.max_float_bytes))))
  in
  Buffer.add_string buf "plan";
  Text.add_int buf t.modes;
  Text.add_int buf count;
  Buffer.add_char buf '\n';
  Array.iter
    (fun { rotation = { Givens.m; n; c; s; ere; eim }; row } ->
       Buffer.add_char buf 'r';
       Text.add_int buf row;
       Text.add_int buf m;
       Text.add_int buf n;
       Text.add_float buf c;
       Text.add_float buf s;
       Text.add_float buf ere;
       Text.add_float buf eim;
       Buffer.add_char buf '\n')
    t.elements;
  Array.iter
    (fun (lam : Cx.t) ->
       Buffer.add_char buf 'l';
       Text.add_float buf lam.re;
       Text.add_float buf lam.im;
       Buffer.add_char buf '\n')
    t.lambda;
  Buffer.contents buf

let save oc t = output_string oc (to_string t)

(* The shortest rotation and lambda lines, "r 0 0 0 a b c d\n" and
   "l a b\n": header counts that cannot fit in the rest of the input
   are refused before anything is allocated for them. *)
let min_rotation_bytes = 16
let min_lambda_bytes = 6

(* The parse never raises on malformed input: every line failure is
   surfaced as [Error (message, 1-based line)] so bosec/lint can turn
   it into a BH0801 diagnostic rather than dying on an exception. *)
let of_text s =
  let r = Text.reader s in
  try
    Text.line r "bad header";
    Text.tag r "plan";
    let modes = Text.int r in
    let count = Text.int r in
    Text.eol r;
    if modes <= 0 || count < 0 then Text.fail r "bad header values";
    Text.reserve r ~lines:count ~min_bytes:min_rotation_bytes;
    Text.reserve r ~lines:modes ~min_bytes:min_lambda_bytes;
    let elements =
      Array.init count (fun _ ->
          Text.line r "bad rotation line";
          Text.tag r "r";
          let row = Text.int r in
          let m = Text.int r in
          let n = Text.int r in
          let c = Text.float r in
          let s = Text.float r in
          let ere = Text.float r in
          let eim = Text.float r in
          Text.eol r;
          { rotation = { Givens.m; n; c; s; ere; eim }; row })
    in
    let lambda =
      Array.init modes (fun _ ->
          Text.line r "bad lambda line";
          Text.tag r "l";
          let re = Text.float r in
          let im = Text.float r in
          Text.eol r;
          Cx.make re im)
    in
    Ok { modes; elements; lambda }
  with Text.Malformed (msg, l) -> Error (msg, l)

(* Binary artifact format v2 (docs/SERVING.md), the plan-side sibling
   of Unitary's "BHBU" layout. Fixed little-endian fields, no parsing:
     bytes 0..3   magic "BHBP"
     byte  4      format version (0x02)
     bytes 5..7   zero padding
     bytes 8..11  modes (u32 LE)
     bytes 12..15 rotation count (u32 LE)
     then count × 48-byte elements
                  { row i32, m i32, n i32, pad i32, c f64, s f64,
                    ere f64, eim f64 }   — the kernel quadruple, same
                  numbers the text format's "r" lines carry
     then modes × 16-byte Λ entries { re f64, im f64 }
     last 8       FNV-1a 64 over all preceding bytes (u64 LE)
   Text plans keep their "plan" first line, so [of_string] dispatches
   on the magic and old artifacts keep loading. *)
let binary_magic = "BHBP"
let binary_format_version = 2
let binary_header_bytes = 16
let element_bytes = 48
let lambda_bytes = 16
let max_binary_dim = 1 lsl 20

let binary_size ~modes ~count =
  binary_header_bytes + (element_bytes * count) + (lambda_bytes * modes) + 8

let to_binary_string t =
  let count = Array.length t.elements in
  let buf = Buffer.create (binary_size ~modes:t.modes ~count) in
  Buffer.add_string buf binary_magic;
  Buffer.add_uint8 buf binary_format_version;
  Buffer.add_string buf "\000\000\000";
  Buffer.add_int32_le buf (Int32.of_int t.modes);
  Buffer.add_int32_le buf (Int32.of_int count);
  let f64 x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  Array.iter
    (fun { rotation = { Givens.m; n; c; s; ere; eim }; row } ->
       Buffer.add_int32_le buf (Int32.of_int row);
       Buffer.add_int32_le buf (Int32.of_int m);
       Buffer.add_int32_le buf (Int32.of_int n);
       Buffer.add_int32_le buf 0l;
       f64 c;
       f64 s;
       f64 ere;
       f64 eim)
    t.elements;
  Array.iter
    (fun (lam : Cx.t) ->
       f64 lam.Complex.re;
       f64 lam.Complex.im)
    t.lambda;
  Buffer.add_int64_le buf (Fnv.string Fnv.seed (Buffer.contents buf));
  Buffer.contents buf

let has_binary_magic s =
  String.length s >= 4 && String.sub s 0 4 = binary_magic

(* Binary parse errors report line 0 — there are no lines to point at,
   and 0 cannot collide with a 1-based text line number. *)
let of_binary_string s =
  let len = String.length s in
  if len < binary_header_bytes + 8 then Error ("binary plan: truncated", 0)
  else begin
    let version = Char.code s.[4] in
    let modes = Int32.to_int (String.get_int32_le s 8) in
    let count = Int32.to_int (String.get_int32_le s 12) in
    if version <> binary_format_version then
      Error (Printf.sprintf "binary plan: unsupported version %d" version, 0)
    else if modes <= 0 || modes > max_binary_dim || count < 0 || count > max_binary_dim * 4
    then Error ("binary plan: bad header values", 0)
    else if len <> binary_size ~modes ~count then Error ("binary plan: size mismatch", 0)
    else begin
      let body = len - 8 in
      if String.get_int64_le s body <> Fnv.substring Fnv.seed s ~pos:0 ~len:body then
        Error ("binary plan: checksum mismatch", 0)
      else begin
        let i32 pos = Int32.to_int (String.get_int32_le s pos) in
        let f64 pos = Int64.float_of_bits (String.get_int64_le s pos) in
        let elements =
          Array.init count (fun i ->
              let p = binary_header_bytes + (element_bytes * i) in
              {
                rotation =
                  {
                    Givens.m = i32 (p + 4);
                    n = i32 (p + 8);
                    c = f64 (p + 16);
                    s = f64 (p + 24);
                    ere = f64 (p + 32);
                    eim = f64 (p + 40);
                  };
                row = i32 p;
              })
        in
        let lbase = binary_header_bytes + (element_bytes * count) in
        let lambda =
          Array.init modes (fun i ->
              let p = lbase + (lambda_bytes * i) in
              Cx.make (f64 p) (f64 (p + 8)))
        in
        Ok { modes; elements; lambda }
      end
    end
  end

let of_bigbytes ba ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim ba then
    invalid_arg "Plan.of_bigbytes: range out of bounds";
  (* Plans are header-dominated (48 bytes per rotation, no O(N²) plane
     payload), so the mmap path copies the slice out and reuses the
     fixed-field string decoder — the win over text is skipping
     hex-float parsing, not the copy. *)
  of_binary_string (Mat.bigbytes_sub_string ba ~pos ~len)

let of_string s = if has_binary_magic s then of_binary_string s else of_text s

let load_result ic = of_string (In_channel.input_all ic)

let load ic =
  match load_result ic with
  | Ok t -> t
  | Error (msg, l) -> failwith (Printf.sprintf "Plan.load: %s (line %d)" msg l)

let pp fmt t =
  Format.fprintf fmt "@[<v>plan on %d modes, %d rotations@," t.modes (Array.length t.elements);
  Array.iter
    (fun { rotation; row } ->
       Format.fprintf fmt "  row %d: T(%d,%d) theta=%.4f phi=%.4f@," row
         rotation.Givens.m rotation.Givens.n (Givens.theta rotation)
         (Givens.phi rotation))
    t.elements;
  Format.fprintf fmt "@]"
