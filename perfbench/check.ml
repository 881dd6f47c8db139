(* Output checks that do not trust the compiler under test: the reply is
   read with a scanner of our own, the plan and unitary texts are parsed
   with the standard library's float_of_string, and the plan is replayed
   with naive get/set arithmetic. Only the input generation shares code
   with the program. *)

module Mat = Bose_linalg.Mat

(* ---- reply fields ------------------------------------------------ *)

let find_sub s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i m = sub then
      Some i
    else go (i + 1)
  in
  go from

(* Raw (still escaped) bytes of the string value of ["name"], as
   (start, length). The compile result's string fields carry no quotes,
   so the first match is the field itself. *)
let raw_string_field reply name =
  match find_sub reply ("\"" ^ name ^ "\":\"") ~from:0 with
  | None -> None
  | Some i ->
    let start = i + String.length name + 4 in
    let rec close j =
      if j >= String.length reply then None
      else
        match reply.[j] with
        | '\\' -> close (j + 2)
        | '"' -> Some (start, j - start)
        | _ -> close (j + 1)
    in
    close start

let unescape s ~pos ~len =
  let b = Buffer.create len in
  let stop = pos + len in
  let rec go i =
    if i < stop then
      if s.[i] <> '\\' then begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
      else begin
        (match s.[i + 1] with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' -> Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (i + 2) 4)))
         | c -> Buffer.add_char b c);
        go (i + if s.[i + 1] = 'u' then 6 else 2)
      end
  in
  go pos;
  Buffer.contents b

let string_field reply name =
  Option.map (fun (pos, len) -> unescape reply ~pos ~len) (raw_string_field reply name)

let number_field reply name =
  match find_sub reply ("\"" ^ name ^ "\":") ~from:0 with
  | None -> None
  | Some i ->
    let start = i + String.length name + 3 in
    let j = ref start in
    while !j < String.length reply && not (String.contains ",}" reply.[!j]) do
      incr j
    done;
    float_of_string_opt (String.sub reply start (!j - start))

(* Everything from the [modes] field on: modes, rotations, fidelity,
   plan and unitary — the part of a compile reply that must not depend
   on whether it was compiled or served from the store. *)
let tail reply =
  match find_sub reply {|,"modes":|} ~from:0 with
  | None -> None
  | Some i -> Some (String.sub reply i (String.length reply - i))

(* ---- artifact texts --------------------------------------------- *)

(* Column-major complex matrix: entry (i, j) at j*n + i. *)
type cmat = { n : int; re : float array; im : float array }

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let unitary_of_text text =
  match String.split_on_char '\n' text with
  | header :: rest ->
    (match words header with
     | [ "unitary"; n ] ->
       let n = int_of_string n in
       let re = Array.make (n * n) 0. and im = Array.make (n * n) 0. in
       List.iteri
         (fun k line ->
            if k < n * n then
              match words line with
              | [ "e"; a; b ] ->
                let i = k / n and j = k mod n in
                re.((j * n) + i) <- float_of_string a;
                im.((j * n) + i) <- float_of_string b
              | _ -> failwith "bad unitary entry")
         rest;
       if List.length (List.filter (( <> ) "") rest) <> n * n then failwith "unitary entry count";
       { n; re; im }
     | _ -> failwith "bad unitary header")
  | [] -> failwith "empty unitary"

type plan = {
  modes : int;
  m : int array;
  nn : int array;
  c : float array;
  s : float array;
  ere : float array;
  eim : float array;
  lam_re : float array;
  lam_im : float array;
}

let plan_of_text text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  match words lines.(0) with
  | [ "plan"; modes; count ] ->
    let modes = int_of_string modes and count = int_of_string count in
    let fl = Array.make count 0. in
    let p =
      {
        modes;
        m = Array.make count 0;
        nn = Array.make count 0;
        c = Array.copy fl;
        s = Array.copy fl;
        ere = Array.copy fl;
        eim = Array.copy fl;
        lam_re = Array.make modes 0.;
        lam_im = Array.make modes 0.;
      }
    in
    for k = 0 to count - 1 do
      match words lines.(k + 1) with
      | [ "r"; _row; m; n; c; s; ere; eim ] ->
        p.m.(k) <- int_of_string m;
        p.nn.(k) <- int_of_string n;
        p.c.(k) <- float_of_string c;
        p.s.(k) <- float_of_string s;
        p.ere.(k) <- float_of_string ere;
        p.eim.(k) <- float_of_string eim
      | _ -> failwith "bad rotation line"
    done;
    for i = 0 to modes - 1 do
      match words lines.(count + 1 + i) with
      | [ "l"; a; b ] ->
        p.lam_re.(i) <- float_of_string a;
        p.lam_im.(i) <- float_of_string b
      | _ -> failwith "bad lambda line"
    done;
    p
  | _ -> failwith "bad plan header"

(* U = Λ·T_K⋯T_1, right-multiplying by T_K first. T_{m,n} differs from
   the identity only at T[m][m] = e·c, T[m][n] = -s, T[n][m] = e·s,
   T[n][n] = c, with e = e^{iφ}; so M·T rewrites two columns:
   col m ← e·(c·a + s·b), col n ← c·b − s·a. *)
let replay p =
  let n = p.modes in
  let re = Array.make (n * n) 0. and im = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    re.((i * n) + i) <- p.lam_re.(i);
    im.((i * n) + i) <- p.lam_im.(i)
  done;
  for k = Array.length p.m - 1 downto 0 do
    let c = p.c.(k) and s = p.s.(k) and er = p.ere.(k) and ei = p.eim.(k) in
    let om = p.m.(k) * n and on = p.nn.(k) * n in
    for i = 0 to n - 1 do
      let ar = re.(om + i) and ai = im.(om + i) in
      let br = re.(on + i) and bi = im.(on + i) in
      let xr = (c *. ar) +. (s *. br) and xi = (c *. ai) +. (s *. bi) in
      re.(om + i) <- (er *. xr) -. (ei *. xi);
      im.(om + i) <- (er *. xi) +. (ei *. xr);
      re.(on + i) <- (c *. br) -. (s *. ar);
      im.(on + i) <- (c *. bi) -. (s *. ai)
    done
  done;
  { n; re; im }

let max_diff a b =
  let d = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    d := Float.max !d (Float.abs (a.re.(k) -. b.re.(k)));
    d := Float.max !d (Float.abs (a.im.(k) -. b.im.(k)))
  done;
  !d

let of_mat u =
  let n = Mat.rows u in
  let re = Array.make (n * n) 0. and im = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let (v : Bose_linalg.Cx.t) = Mat.get u i j in
      re.((j * n) + i) <- v.re;
      im.((j * n) + i) <- v.im
    done
  done;
  { n; re; im }

(* Whether [r] is exactly P_r·[u]·P_c for some row and column
   permutations, compared bit for bit. Rows are matched by the sorted
   multiset of their entries, then columns by their entries in the
   matched row order. *)
let is_permutation_of u r =
  let n = u.n in
  if r.n <> n then false
  else begin
    let entry_bits b m i j =
      Buffer.add_int64_le b (Int64.bits_of_float m.re.((j * n) + i));
      Buffer.add_int64_le b (Int64.bits_of_float m.im.((j * n) + i))
    in
    let row_key m i =
      let pairs =
        Array.init n (fun j ->
            (Int64.bits_of_float m.re.((j * n) + i), Int64.bits_of_float m.im.((j * n) + i)))
      in
      Array.sort compare pairs;
      let b = Buffer.create (16 * n) in
      Array.iter
        (fun (x, y) ->
           Buffer.add_int64_le b x;
           Buffer.add_int64_le b y)
        pairs;
      Buffer.contents b
    in
    let pop tbl k =
      match Hashtbl.find_opt tbl k with
      | Some (x :: rest) ->
        Hashtbl.replace tbl k rest;
        Some x
      | Some [] | None -> None
    in
    let push tbl k x =
      Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    let rows = Hashtbl.create n in
    for i = n - 1 downto 0 do
      push rows (row_key u i) i
    done;
    let rperm = Array.init n (fun i -> pop rows (row_key r i)) in
    if Array.exists Option.is_none rperm then false
    else begin
      let rperm = Array.map Option.get rperm in
      let col_key m rows_of j =
        let b = Buffer.create (16 * n) in
        for i = 0 to n - 1 do
          entry_bits b m (rows_of i) j
        done;
        Buffer.contents b
      in
      let cols = Hashtbl.create n in
      for j = n - 1 downto 0 do
        push cols (col_key u (fun i -> rperm.(i)) j) j
      done;
      let ok = ref true in
      for j = 0 to n - 1 do
        if !ok && Option.is_none (pop cols (col_key r (fun i -> i) j)) then ok := false
      done;
      !ok
    end
  end

(* ---- one compile reply ------------------------------------------- *)

type verdict = {
  key : string;
  fidelity : float;
  tail : string;  (** See {!tail}. *)
  plan_text : string;
  unitary_text : string;
  plan : plan;
  returned : cmat;
}

let replay_tolerance = 1e-8

(* The [fidelity] field is the dropout policy's Monte-Carlo average over
   sampled keep-masks, which lands under tau for a few percent of
   programs (by up to ~2% of the error budget 1 - tau in the workloads'
   draws); the exact guarantee is on the hard cut, which
   {!hard_cut_fidelity} checks. The field may undershoot tau by at most
   10% of the budget. *)
let fidelity_floor tau = tau -. (0.1 *. (1. -. tau))

(* |tr(U_app·U†)|/N for the plan with its [drop] smallest-|θ| rotations
   replayed without their beamsplitter (θ = 0, phase kept), against the
   returned unitary [u]. *)
let hard_cut_fidelity p u ~drop =
  let count = Array.length p.m in
  let theta k = Float.abs (Float.atan2 p.s.(k) p.c.(k)) in
  let order = Array.init count Fun.id in
  Array.sort (fun i j -> compare (theta i) (theta j)) order;
  let c = Array.copy p.c and s = Array.copy p.s in
  for r = 0 to drop - 1 do
    c.(order.(r)) <- 1.;
    s.(order.(r)) <- 0.
  done;
  let a = replay { p with c; s } in
  let tr_re = ref 0. and tr_im = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    (* a · conj(u), summed over all entries = tr(A·U†). *)
    tr_re := !tr_re +. (a.re.(k) *. u.re.(k)) +. (a.im.(k) *. u.im.(k));
    tr_im := !tr_im +. (a.im.(k) *. u.re.(k)) -. (a.re.(k) *. u.im.(k))
  done;
  Float.hypot !tr_re !tr_im /. float_of_int u.n

(* Checks (a) permutation of the input, (b) naive replay of the plan
   reproduces the returned unitary, (c) fidelity ≥ tau (see
   {!fidelity_floor}). *)
let compile_reply ~(program : Gen.program) reply =
  let ( let* ) = Result.bind in
  let need what = function Some v -> Ok v | None -> Error ("reply has no " ^ what) in
  let* () =
    match find_sub reply {|"ok":true|} ~from:0 with
    | Some _ -> Ok ()
    | None -> Error ("error reply: " ^ String.sub reply 0 (min 300 (String.length reply)))
  in
  let* key = need "key" (string_field reply "key") in
  let* fidelity = need "fidelity" (number_field reply "fidelity") in
  let* plan_text = need "plan" (string_field reply "plan") in
  let* unitary_text = need "unitary" (string_field reply "unitary") in
  let* tail = need "modes" (tail reply) in
  let* returned =
    try Ok (unitary_of_text unitary_text) with Failure m -> Error ("unitary text: " ^ m)
  in
  let* plan = try Ok (plan_of_text plan_text) with Failure m -> Error ("plan text: " ^ m) in
  let* () =
    if is_permutation_of (of_mat program.Gen.input) returned then Ok ()
    else Error "returned unitary is not a row/column permutation of the input"
  in
  let* () =
    if plan.modes <> returned.n then Error "plan and unitary sizes differ"
    else
      let d = max_diff (replay plan) returned in
      if d <= replay_tolerance then Ok ()
      else Error (Printf.sprintf "plan replay differs from the returned unitary by %.3g" d)
  in
  let* () =
    if fidelity >= fidelity_floor program.Gen.tau then Ok ()
    else Error (Printf.sprintf "fidelity %.17g below tau %.17g" fidelity program.Gen.tau)
  in
  Ok { key; fidelity; tail; plan_text; unitary_text; plan; returned }
