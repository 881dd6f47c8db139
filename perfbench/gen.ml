(* Seeded request generators for the three workloads. The server only
   ever sees the request lines built here; the benchmark keeps each
   program's input unitary so the output checks can compare against it.

   Every draw is keyed by (seed, workload tag, program index), so a
   program can be regenerated on its own — the traced replay rebuilds
   the N=500 request lines instead of keeping 11.5 MB strings around. *)

module Rng = Bose_util.Rng
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary

type program = {
  label : string;  (** Human-readable kind, e.g. ["haar32/seed"] or ["DS24/inline"]. *)
  params : string;  (** The request's JSON [params] object. *)
  input : Mat.t;  (** The unitary the server compiles. *)
  tau : float;
  dropout : bool;  (** Whether the requested config runs the dropout pass. *)
}

let request ~id p = Printf.sprintf {|{"id":%d,"op":"compile","params":%s}|} id p.params

let json_escape s =
  let b = Buffer.create (String.length s + (String.length s / 16)) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.17g reparses to the same double, so the server sees tau bit-exactly. *)
let device_params ~rows ~cols ~tau = Printf.sprintf {|"rows":%d,"cols":%d,"tau":%.17g|} rows cols tau

(* 4x4 holds 16 modes, 6x6 holds 24 and 32 (the paper's 24-qumode device). *)
let device_for modes = if modes <= 16 then (4, 4) else (6, 6)

let seed_form ~label ~modes ~seed ~tau =
  let rows, cols = device_for modes in
  {
    label;
    params =
      Printf.sprintf {|{"modes":%d,"seed":%d,%s}|} modes seed (device_params ~rows ~cols ~tau);
    input = Unitary.haar_random (Rng.create seed) modes;
    tau;
    dropout = true;
  }

let inline_form ?config ~label ~rows ~cols ~tau u =
  {
    label;
    params =
      Printf.sprintf {|{"unitary":"%s",%s%s}|}
        (json_escape (Unitary.to_string u))
        (device_params ~rows ~cols ~tau)
        (match config with None -> "" | Some c -> Printf.sprintf {|,"config":"%s"|} c);
    input = u;
    tau;
    dropout = config <> Some "baseline";
  }

let state ~seed ~tag ~index = Random.State.make [| seed; tag; index |]

let sizes = [| 16; 24; 32 |]

(* serve-cold: program [i] is distinct for every i. Even indices are
   Haar programs in seed form, cycling N = 16, 24, 32; odd indices are
   the paper's 24-qumode applications sent inline, cycling DS, MC, GS
   (graph encodings) and VS (vibronic), each at its Table II tau. The
   cycles fix the mix, so only the draws change with the seed. *)
let cold ~seed i =
  let st = state ~seed ~tag:1 ~index:i in
  let draw = Random.State.int st 1_000_000_000 in
  if i mod 2 = 0 then begin
    let modes = sizes.((i / 2) mod 3) in
    seed_form ~label:(Printf.sprintf "haar%d/seed" modes) ~modes ~seed:draw ~tau:0.999
  end
  else begin
    let rng = Rng.create draw in
    let app = (i / 2) mod 4 in
    let name, tau, u =
      if app < 3 then begin
        let p = 0.7 +. Rng.float rng 0.2 in
        let g = Bose_apps.Graph.random rng ~n:24 ~p in
        ([| "DS"; "MC"; "GS" |].(app), [| 0.999; 0.9996; 0.999 |].(app),
         Bose_apps.Encoding.unitary_of g)
      end
      else begin
        let molecule = Bose_apps.Vibronic.synthetic rng ~modes:24 in
        let temperature = [| 1000.; 750.; 500.; 250. |].((i / 8) mod 4) in
        ("VS", 0.98, (Bose_apps.Vibronic.program molecule ~temperature).Bosehedral.Runner.unitary)
      end
    in
    inline_form ~label:(name ^ "24/inline") ~rows:6 ~cols:6 ~tau u
  end

(* serve-warm: a fixed set of programs whose popularity rank [k] fixes
   the size (cycling 16, 24, 32) and the request form (seed form for
   even k/3, inline otherwise), so every seed hits the same size mix. *)
let warm_programs = 36

let warm ~seed k =
  let st = state ~seed ~tag:2 ~index:k in
  let draw = Random.State.int st 1_000_000_000 in
  let modes = sizes.(k mod 3) in
  if (k / 3) mod 2 = 0 then
    seed_form ~label:(Printf.sprintf "haar%d/seed" modes) ~modes ~seed:draw ~tau:0.999
  else begin
    let rows, cols = device_for modes in
    inline_form
      ~label:(Printf.sprintf "haar%d/inline" modes)
      ~rows ~cols ~tau:0.999
      (Unitary.haar_random (Rng.create draw) modes)
  end

(* Zipf(1) over popularity ranks: P(k) ∝ 1/(k+1). *)
let zipf_sampler ~seed n =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !total
  done;
  let st = state ~seed ~tag:3 ~index:0 in
  fun () ->
    let x = Random.State.float st !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

(* tier-500: one Haar unitary per run, and per request a distinct
   seeded row/column permutation of it. A permuted Haar unitary is still
   Haar-distributed and has a new cache key, so every request misses
   while the 5-6 s Haar draw is paid once. *)
let tier_modes = 500

let tier_base ~seed =
  let st = state ~seed ~tag:4 ~index:(-1) in
  Unitary.haar_random (Rng.create (Random.State.bits st)) tier_modes

let shuffled st n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let tier ~seed ~base i =
  let st = state ~seed ~tag:4 ~index:i in
  let rp = shuffled st tier_modes in
  let cp = shuffled st tier_modes in
  let u = Mat.init tier_modes tier_modes (fun r c -> Mat.get base rp.(r) cp.(c)) in
  (* 23x22 = 506 sites, the smallest near-square device holding 500 modes. *)
  inline_form ~config:"baseline" ~label:"haar500/inline" ~rows:23 ~cols:22 ~tau:0.95 u
