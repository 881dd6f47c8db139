module Plan = Bose_decomp.Plan
module Givens = Bose_linalg.Givens
module Coupling = Bose_hardware.Coupling
module Noise = Bose_circuit.Noise
module Obs = Bose_obs.Obs
module Json = Bose_util.Json

let sp_analyze = "flow.analyze"
let c_analyses = Obs.Counter.make "flow.analyses"
let g_depth = Obs.Gauge.make "flow.depth"
let g_dead = Obs.Gauge.make "flow.dead_modes"
let g_infeasible = Obs.Gauge.make "flow.infeasible_rotations"

let check_kept name plan = function
  | Some k when Array.length k <> Array.length plan.Plan.elements ->
    invalid_arg (Printf.sprintf "Flow.%s: kept length mismatch" name)
  | Some _ | None -> ()

let kept_at kept i = match kept with Some k -> k.(i) | None -> true

(* {1 Dependency layering} *)

type layering = {
  asap : int array;
  alap : int array;
  depth : int;
  fronts : int array array;
}

(* Two rotations depend on each other iff they share a mode; the
   dependency graph never needs materializing because a per-mode
   "last layer touching this mode" cursor carries exactly the
   information the longest-path recurrence needs. *)
let layering ?kept plan =
  check_kept "layering" plan kept;
  let k = Array.length plan.Plan.elements in
  let asap = Array.make k (-1) in
  let mode_layer = Array.make plan.Plan.modes 0 in
  let depth = ref 0 in
  for i = 0 to k - 1 do
    if kept_at kept i then begin
      let r = plan.Plan.elements.(i).Plan.rotation in
      let l = max mode_layer.(r.Givens.m) mode_layer.(r.Givens.n) in
      asap.(i) <- l;
      mode_layer.(r.Givens.m) <- l + 1;
      mode_layer.(r.Givens.n) <- l + 1;
      if l + 1 > !depth then depth := l + 1
    end
  done;
  let depth = !depth in
  (* ALAP is the same recurrence over the reversed program, re-anchored
     so the last layer is depth - 1. *)
  let alap = Array.make k (-1) in
  let rev_layer = Array.make plan.Plan.modes 0 in
  for i = k - 1 downto 0 do
    if kept_at kept i then begin
      let r = plan.Plan.elements.(i).Plan.rotation in
      let l = max rev_layer.(r.Givens.m) rev_layer.(r.Givens.n) in
      alap.(i) <- depth - 1 - l;
      rev_layer.(r.Givens.m) <- l + 1;
      rev_layer.(r.Givens.n) <- l + 1
    end
  done;
  let sizes = Array.make depth 0 in
  Array.iter (fun l -> if l >= 0 then sizes.(l) <- sizes.(l) + 1) asap;
  let fronts = Array.map (fun n -> Array.make n (-1)) sizes in
  let fill = Array.make depth 0 in
  Array.iteri
    (fun i l ->
       if l >= 0 then begin
         fronts.(l).(fill.(l)) <- i;
         fill.(l) <- fill.(l) + 1
       end)
    asap;
  { asap; alap; depth; fronts }

let slack layering =
  Array.mapi
    (fun i a -> if a < 0 then -1 else layering.alap.(i) - a)
    layering.asap

(* Direct simulation of front peeling, deliberately NOT sharing the
   layer arithmetic above: each sweep walks the remaining rotations in
   elimination order and admits a rotation iff neither of its modes was
   claimed — by an admitted rotation (it runs this sweep) or by a
   blocked one (ordering forbids overtaking it). List scheduling of
   unit-latency interval orders is optimal, so the sweep count must
   equal the ASAP depth; test_flow pins that as a property. *)
let greedy_front_count ?kept plan =
  check_kept "greedy_front_count" plan kept;
  let remaining = ref [] in
  for i = Array.length plan.Plan.elements - 1 downto 0 do
    if kept_at kept i then remaining := i :: !remaining
  done;
  let sweeps = ref 0 in
  while !remaining <> [] do
    incr sweeps;
    let claimed = Array.make plan.Plan.modes false in
    remaining :=
      List.filter
        (fun i ->
           let r = plan.Plan.elements.(i).Plan.rotation in
           let m = r.Givens.m and n = r.Givens.n in
           let runs = (not claimed.(m)) && not claimed.(n) in
           claimed.(m) <- true;
           claimed.(n) <- true;
           not runs)
        !remaining
  done;
  !sweeps

(* {1 Per-mode liveness} *)

type liveness = {
  first_touch : int array;
  last_touch : int array;
  touches : int array;
  dead : int list;
}

let liveness ?kept plan =
  check_kept "liveness" plan kept;
  let modes = plan.Plan.modes in
  let first_touch = Array.make modes (-1) in
  let last_touch = Array.make modes (-1) in
  let touches = Array.make modes 0 in
  Array.iteri
    (fun i e ->
       if kept_at kept i then begin
         let r = e.Plan.rotation in
         List.iter
           (fun v ->
              if first_touch.(v) < 0 then first_touch.(v) <- i;
              last_touch.(v) <- i;
              touches.(v) <- touches.(v) + 1)
           [ r.Givens.m; r.Givens.n ]
       end)
    plan.Plan.elements;
  let dead = ref [] in
  for v = modes - 1 downto 0 do
    if touches.(v) = 0 then dead := v :: !dead
  done;
  { first_touch; last_touch; touches; dead = !dead }

(* {1 Budget intervals} *)

type interval = { lo : float; hi : float }

(* ‖T(θ,φ) − T(0,φ)‖_F = √(2(1−c)² + 2s²) = 2√(1−c); see flow.mli. *)
let drop_cost c = 2. *. sqrt (Float.max 0. (1. -. c))

let fidelity_interval ?kept plan =
  check_kept "fidelity_interval" plan kept;
  let budget = ref 0. in
  Array.iteri
    (fun i e ->
       if not (kept_at kept i) then
         budget := !budget +. drop_cost e.Plan.rotation.Givens.c)
    plan.Plan.elements;
  { lo = Float.max 0. (1. -. !budget); hi = 1. }

let transmission ?kept ~noise plan =
  check_kept "transmission" plan kept;
  Noise.validate noise;
  let eta = Array.make plan.Plan.modes 1. in
  let phase = 1. -. noise.Noise.single_qumode_loss in
  let bs = 1. -. noise.Noise.beamsplitter_loss in
  (* Same gate stream as Plan.to_circuit ~style:Tunable, without
     building the circuit. *)
  Array.iteri
    (fun i e ->
       let r = e.Plan.rotation in
       eta.(r.Givens.m) <- eta.(r.Givens.m) *. phase;
       if kept_at kept i then begin
         eta.(r.Givens.m) <- eta.(r.Givens.m) *. bs;
         eta.(r.Givens.n) <- eta.(r.Givens.n) *. bs
       end)
    plan.Plan.elements;
  for v = 0 to plan.Plan.modes - 1 do
    eta.(v) <- eta.(v) *. phase
  done;
  eta

let float_range a =
  Array.fold_left
    (fun { lo; hi } x -> { lo = Float.min lo x; hi = Float.max hi x })
    { lo = 1.; hi = 1. } a

let transmission_interval ?kept ~noise plan =
  float_range (transmission ?kept ~noise plan)

(* {1 Hardware backends and feasibility} *)

type backend = {
  coupling : Coupling.t option;
  sites : int array option;
  routing_budget : int;
  max_depth : int option;
  noise : Noise.t;
  min_transmission : float;
}

let backend ?coupling ?sites ?(routing_budget = 0) ?max_depth
    ?(noise = Noise.ideal) ?(min_transmission = 0.) () =
  if routing_budget < 0 then invalid_arg "Flow.backend: negative routing budget";
  Noise.validate noise;
  { coupling; sites; routing_budget; max_depth; noise; min_transmission }

(* The one place a hardware target becomes a dataflow backend: the
   coupling graph sized to the program, plus the target's routing,
   depth, noise and loss-floor knobs, verbatim. Everything downstream
   (BH11xx, bosec analyze, the serve analyze op) goes through this. *)
let backend_of_target ?sites ~n (t : Bose_hardware.Target.t) =
  {
    coupling = Some (Bose_hardware.Target.coupling t n);
    sites;
    routing_budget = t.Bose_hardware.Target.routing_budget;
    max_depth = t.Bose_hardware.Target.max_depth n;
    noise = t.Bose_hardware.Target.noise;
    min_transmission = t.Bose_hardware.Target.min_transmission;
  }

type infeasible_rotation = {
  rotation : int;
  pair : int * int;
  distance : int;
}

let site_of backend label =
  match backend.sites with
  | None -> label
  | Some s -> if label < Array.length s then s.(label) else -1

let infeasible backend ?kept plan =
  check_kept "infeasible" plan kept;
  match backend.coupling with
  | None -> []
  | Some coupling ->
    let n_sites = Coupling.size coupling in
    (* Memoize one BFS per distinct source site; plans reuse sources
       heavily (every rotation of a Clements column shares its row). *)
    let memo = Hashtbl.create 16 in
    let dist a b =
      if a < 0 || a >= n_sites || b < 0 || b >= n_sites then -1
      else begin
        let a, b = if a <= b then (a, b) else (b, a) in
        match Hashtbl.find_opt memo a with
        | Some d -> d.(b)
        | None ->
          let d = Coupling.distances coupling a in
          Hashtbl.add memo a d;
          d.(b)
      end
    in
    let acc = ref [] in
    for i = Array.length plan.Plan.elements - 1 downto 0 do
      if kept_at kept i then begin
        let r = plan.Plan.elements.(i).Plan.rotation in
        let d = dist (site_of backend r.Givens.m) (site_of backend r.Givens.n) in
        if d < 0 || d > 1 + backend.routing_budget then
          acc :=
            { rotation = i; pair = (r.Givens.m, r.Givens.n); distance = d }
            :: !acc
      end
    done;
    !acc

(* {1 Front validation} *)

let check_fronts ?kept plan fronts =
  check_kept "check_fronts" plan kept;
  let k = Array.length plan.Plan.elements in
  let front_of = Array.make k (-1) in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
  List.iteri
    (fun f front ->
       let claimed = Hashtbl.create 8 in
       List.iter
         (fun i ->
            if i < 0 || i >= k then fail "rotation %d out of range in front %d" i f
            else if not (kept_at kept i) then
              fail "front %d schedules dropped rotation %d" f i
            else if front_of.(i) >= 0 then
              fail "rotation %d appears in fronts %d and %d" i front_of.(i) f
            else begin
              front_of.(i) <- f;
              let r = plan.Plan.elements.(i).Plan.rotation in
              List.iter
                (fun v ->
                   match Hashtbl.find_opt claimed v with
                   | Some j ->
                     fail "front %d not commuting: rotations %d and %d share mode %d"
                       f j i v
                   | None -> Hashtbl.add claimed v i)
                [ r.Givens.m; r.Givens.n ]
            end)
         front)
    fronts;
  (* Coverage and elimination order across fronts. *)
  let mode_last = Array.make plan.Plan.modes (-1) in
  for i = 0 to k - 1 do
    if kept_at kept i then begin
      if front_of.(i) < 0 then fail "kept rotation %d missing from fronts" i
      else begin
        let r = plan.Plan.elements.(i).Plan.rotation in
        List.iter
          (fun v ->
             let j = mode_last.(v) in
             if j >= 0 && front_of.(j) >= front_of.(i) then
               fail
                 "order violation on mode %d: rotation %d (front %d) must precede %d (front %d)"
                 v j front_of.(j) i front_of.(i);
             mode_last.(v) <- i)
          [ r.Givens.m; r.Givens.n ]
      end
    end
  done;
  !bad

(* {1 Reports} *)

type report = {
  modes : int;
  rotations : int;
  kept_rotations : int;
  layers : layering;
  live : liveness;
  fidelity : interval;
  per_mode_transmission : float array;
  transmission_range : interval;
  infeasible_rotations : infeasible_rotation list;
  unused_sites : int list;
  max_depth : int option;
  min_transmission : float;
}

let null_backend = backend ()

let unused_sites backend live =
  match backend.coupling with
  | None -> []
  | Some coupling ->
    let used = Array.make (Coupling.size coupling) false in
    Array.iteri
      (fun v n ->
         if n > 0 then begin
           let s = site_of backend v in
           if s >= 0 && s < Array.length used then used.(s) <- true
         end)
      live.touches;
    let acc = ref [] in
    for s = Array.length used - 1 downto 0 do
      if not used.(s) then acc := s :: !acc
    done;
    !acc

let analyze ?kept ?backend:(b = null_backend) plan =
  check_kept "analyze" plan kept;
  Obs.Span.with_ sp_analyze @@ fun () ->
  Obs.Counter.incr c_analyses;
  let layers = layering ?kept plan in
  let live = liveness ?kept plan in
  let fidelity = fidelity_interval ?kept plan in
  let per_mode_transmission = transmission ?kept ~noise:b.noise plan in
  let transmission_range = float_range per_mode_transmission in
  let infeasible_rotations = infeasible b ?kept plan in
  let kept_rotations =
    match kept with
    | None -> Array.length plan.Plan.elements
    | Some k -> Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 k
  in
  Obs.Gauge.set g_depth (float_of_int layers.depth);
  Obs.Gauge.set g_dead (float_of_int (List.length live.dead));
  Obs.Gauge.set g_infeasible (float_of_int (List.length infeasible_rotations));
  {
    modes = plan.Plan.modes;
    rotations = Array.length plan.Plan.elements;
    kept_rotations;
    layers;
    live;
    fidelity;
    per_mode_transmission;
    transmission_range;
    infeasible_rotations;
    unused_sites = unused_sites b live;
    max_depth = b.max_depth;
    min_transmission = b.min_transmission;
  }

let report_to_json r =
  let num x = Json.Num x and of_int n = Json.Num (float_of_int n) in
  let ints l = Json.List (List.map of_int l) in
  let interval { lo; hi } = Json.Obj [ ("lo", num lo); ("hi", num hi) ] in
  let crit =
    Array.fold_left (fun acc s -> if s = 0 then acc + 1 else acc) 0
      (slack r.layers)
  in
  Json.Obj
    [
      ("modes", of_int r.modes);
      ("rotations", of_int r.rotations);
      ("kept", of_int r.kept_rotations);
      ("depth", of_int r.layers.depth);
      ("critical", of_int crit);
      ( "fronts",
        Json.List
          (Array.to_list (Array.map (fun f -> ints (Array.to_list f)) r.layers.fronts)) );
      ( "liveness",
        Json.List
          (List.init r.modes (fun v ->
               Json.Obj
                 [
                   ("mode", of_int v);
                   ("first", of_int r.live.first_touch.(v));
                   ("last", of_int r.live.last_touch.(v));
                   ("touches", of_int r.live.touches.(v));
                   ("transmission", num r.per_mode_transmission.(v));
                 ])) );
      ("dead_modes", ints r.live.dead);
      ("fidelity", interval r.fidelity);
      ("transmission", interval r.transmission_range);
      ( "infeasible",
        Json.List
          (List.map
             (fun { rotation; pair = (m, n); distance } ->
                Json.Obj
                  [
                    ("rotation", of_int rotation);
                    ("m", of_int m);
                    ("n", of_int n);
                    ("distance", of_int distance);
                  ])
             r.infeasible_rotations) );
      ("unused_sites", ints r.unused_sites);
      ( "limits",
        Json.Obj
          [
            ("max_depth", Option.fold ~none:Json.Null ~some:of_int r.max_depth);
            ("min_transmission", num r.min_transmission);
          ] );
    ]

let pp_report fmt r =
  Format.fprintf fmt "@[<v>plan: %d modes, %d rotations (%d kept)@," r.modes
    r.rotations r.kept_rotations;
  Format.fprintf fmt "depth: %d layers%s@," r.layers.depth
    (match r.max_depth with
     | Some d when r.layers.depth > d -> Printf.sprintf " (limit %d EXCEEDED)" d
     | Some d -> Printf.sprintf " (limit %d)" d
     | None -> "");
  Format.fprintf fmt "fidelity interval: [%.6f, %.6f]@," r.fidelity.lo
    r.fidelity.hi;
  Format.fprintf fmt "transmission: [%.6f, %.6f] (floor %.6f)@,"
    r.transmission_range.lo r.transmission_range.hi r.min_transmission;
  Format.fprintf fmt "dead modes: %d; infeasible rotations: %d; unused sites: %d@]"
    (List.length r.live.dead)
    (List.length r.infeasible_rotations)
    (List.length r.unused_sites)
