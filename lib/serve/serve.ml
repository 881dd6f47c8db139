module Rng = Bose_util.Rng
module Json = Bose_util.Json
module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary
module Plan = Bose_decomp.Plan
module Lattice = Bose_hardware.Lattice
module Target = Bose_hardware.Target
module Mapping = Bose_mapping.Mapping
module Pool = Bose_par.Pool
module Gaussian = Bose_gbs.Gaussian
module Sampler = Bose_gbs.Sampler
module Fock = Bose_gbs.Fock
module Obs = Bose_obs.Obs
module Diskcache = Bose_store.Diskcache
module Noise = Bose_circuit.Noise
module Dropout = Bose_dropout.Dropout
module Flow = Bose_flow.Flow
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
open Bosehedral

(* serve.* telemetry (docs/METRICS.md). Counters are also mirrored in
   plain fields of [t] so `stats` replies work with telemetry off. *)
let c_requests = Obs.Counter.make "serve.requests"
let c_errors = Obs.Counter.make "serve.errors"
let c_disk_hits = Obs.Counter.make "serve.compile.disk_hits"
let c_mem_hits = Obs.Counter.make "serve.compile.mem_hits"
let c_misses = Obs.Counter.make "serve.compile.misses"
let g_hit_rate = Obs.Gauge.make "serve.hit_rate"
let g_bytes = Obs.Gauge.make "serve.cache.bytes"
let g_entries = Obs.Gauge.make "serve.cache.entries"
let g_evictions = Obs.Gauge.make "serve.cache.evictions"
let g_quarantined = Obs.Gauge.make "serve.cache.quarantined"
let g_mmap_hits = Obs.Gauge.make "store.mmap_hits"

let h_batch_s =
  Obs.Histo.make "serve.batch_s" ~bounds:[| 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

(* What a compile reply carries, and all the memory tier keeps. *)
type answer = {
  fidelity : float;
  rotations : int;
  modes : int;
  plan_text : string;
  unitary_text : string;
}

(* The memory tier, used without a disk store: one answer per compile
   key, evicted least-recently-used first once the answers' text bytes
   pass [max_bytes] — the disk store's shape, in memory. The newest
   answer always stays, as in the store. Owner-domain state. *)
module Mem = struct
  type entry = { answer : answer; mutable last_use : int }

  type t = {
    tbl : (string, entry) Hashtbl.t;
    max_bytes : int;
    mutable bytes : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~max_bytes =
    { tbl = Hashtbl.create 64; max_bytes; bytes = 0; tick = 0; hits = 0; misses = 0 }

  let size e = String.length e.answer.plan_text + String.length e.answer.unitary_text

  let touch m e =
    m.tick <- m.tick + 1;
    e.last_use <- m.tick

  let find m key =
    match Hashtbl.find_opt m.tbl key with
    | Some e ->
      touch m e;
      m.hits <- m.hits + 1;
      Some e.answer
    | None ->
      m.misses <- m.misses + 1;
      None

  (* Same key, same content: a stored key only refreshes its recency. *)
  let add m key answer =
    match Hashtbl.find_opt m.tbl key with
    | Some e -> touch m e
    | None ->
      let e = { answer; last_use = 0 } in
      touch m e;
      Hashtbl.replace m.tbl key e;
      m.bytes <- m.bytes + size e;
      (* The newest entry has the largest tick, so it is never the
         victim while another one remains. *)
      while m.bytes > m.max_bytes && Hashtbl.length m.tbl > 1 do
        let victim, v =
          Hashtbl.fold
            (fun k e acc ->
               match acc with
               | Some (_, best) when best.last_use <= e.last_use -> acc
               | _ -> Some (k, e))
            m.tbl None
          |> Option.get
        in
        Hashtbl.remove m.tbl victim;
        m.bytes <- m.bytes - size v
      done
end

type t = {
  pool : Pool.t option;
  mem : Mem.t option;  (** The memory tier, only without a disk store. *)
  disk : Diskcache.t option;
  mutable stop : bool;
  mutable requests : int;
  mutable errors : int;
  mutable disk_hits : int;
  mutable mem_hits : int;
  mutable misses : int;
}

let create ?(jobs = 1) ?cache_dir ?(max_cache_mb = 64) () =
  if jobs < 1 then invalid_arg "Serve.create: jobs must be >= 1";
  if max_cache_mb < 1 then invalid_arg "Serve.create: max_cache_mb must be >= 1";
  let max_bytes = max_cache_mb * 1024 * 1024 in
  {
    pool = (if jobs > 1 then Some (Pool.create ~domains:jobs) else None);
    mem = (match cache_dir with None -> Some (Mem.create ~max_bytes) | Some _ -> None);
    disk = Option.map (fun dir -> Diskcache.open_ ~dir ~max_bytes) cache_dir;
    stop = false;
    requests = 0;
    errors = 0;
    disk_hits = 0;
    mem_hits = 0;
    misses = 0;
  }

let shutdown t = Option.iter Pool.shutdown t.pool
let stopping t = t.stop

(* ---------------------------------------------------------------- *)
(* Requests.                                                         *)

type compile_req = {
  u : Mat.t;
  config : Config.t;
  tau : float;
  effort : Compiler.effort;
  rows : int;
  cols : int;
  target : Target.t option;
  seed : int;
  key : string;
}

type sample_req = {
  s_modes : int;
  s_seed : int;
  shots : int;
  chains : int;
  squeezing : float;
  max_photons : int;
}

type analyze_req = {
  a_plan : Plan.t option;  (* inline plan text, or... *)
  a_key : string option;  (* ...a disk-cache key to analyze in place *)
  a_seed : int;
  a_tau : float option;
  a_max_depth : int option;
  a_loss : float;
  a_min_transmission : float;
  a_target : Target.t option;  (* backend derived from a registered target *)
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of compile_req
  | Sample of sample_req
  | Analyze of analyze_req

(* The cache key: a content fingerprint over everything that determines
   the artifact. The seed is deliberately excluded — it only picks the
   Haar sample and the RNG stream, and the sampled unitary itself is
   folded in — so a key's first compile is its answer under any seed.
   The target name is folded in only when a target is requested, so
   pre-target disk caches keep serving hits for target-less requests. *)
let compile_key ?target ~config ~tau ~effort ~rows ~cols u =
  let open Pass.Fingerprint in
  let h =
    int
      (int
         (string (float (string (string seed "serve.compile.v1") (Config.name config)) tau)
            (Pass.effort_name effort))
         rows)
      cols
  in
  let h =
    match target with
    | None -> h
    | Some (t : Target.t) -> string (string h "target") t.Target.name
  in
  to_hex (mat h u)

exception Bad_request of string

let fail msg = raise (Bad_request msg)

let get_int params key ~default =
  match Json.mem key params with
  | None -> default
  | Some v -> (match Json.int v with Some n -> n | None -> fail (key ^ " must be an integer"))

let get_num params key ~default =
  match Json.mem key params with
  | None -> default
  | Some v -> (match Json.num v with Some x -> x | None -> fail (key ^ " must be a number"))

let get_str params key =
  match Json.mem key params with
  | None -> None
  | Some v -> (match Json.str v with Some s -> Some s | None -> fail (key ^ " must be a string"))

let get_target params =
  match get_str params "target" with
  | None -> None
  | Some name ->
    (match Target.find name with
     | Some t -> Some t
     | None ->
       fail
         (Printf.sprintf "unknown target %s (registered: %s)" name
            (String.concat " | " (Target.names ()))))

let parse_compile params =
  let rows = get_int params "rows" ~default:6 in
  let cols = get_int params "cols" ~default:6 in
  let seed = get_int params "seed" ~default:2024 in
  let tau = get_num params "tau" ~default:0.999 in
  if rows < 1 || cols < 1 then fail "rows/cols must be >= 1";
  let target = get_target params in
  if
    Option.is_some target
    && (Option.is_some (Json.mem "rows" params) || Option.is_some (Json.mem "cols" params))
  then fail "target and rows/cols are mutually exclusive (the target sizes its own device)";
  let config =
    match get_str params "config" with
    | None -> Config.Full_opt
    | Some s ->
      (match Config.of_string s with
       | Some c -> c
       | None -> fail "config must be baseline | rot-cut | decomp-opt | full-opt")
  in
  let effort =
    match get_str params "effort" with
    | None | Some "standard" -> Compiler.Standard
    | Some "fast" -> Compiler.Fast
    | Some _ -> fail "effort must be fast | standard"
  in
  let u =
    match get_str params "unitary" with
    | Some text ->
      (match Unitary.of_string text with
       | Ok u -> u
       | Error (msg, l) -> fail (Printf.sprintf "unitary line %d: %s" l msg))
    | None ->
      let modes = get_int params "modes" ~default:6 in
      if modes < 1 then fail "modes must be >= 1";
      if Option.is_none target && modes > rows * cols then
        fail "modes do not fit on the device";
      Unitary.haar_random (Rng.create seed) modes
  in
  if Option.is_none target && Mat.rows u > rows * cols then
    fail "unitary does not fit on the device";
  let key = compile_key ?target ~config ~tau ~effort ~rows ~cols u in
  Compile { u; config; tau; effort; rows; cols; target; seed; key }

let parse_sample params =
  let s_modes = get_int params "modes" ~default:4 in
  if s_modes < 1 || s_modes > 10 then fail "modes must be in 1..10 (exact simulation)";
  let shots = get_int params "shots" ~default:64 in
  if shots < 1 then fail "shots must be >= 1";
  let chains = get_int params "chains" ~default:4 in
  if chains < 1 then fail "chains must be >= 1";
  let max_photons = get_int params "max_photons" ~default:4 in
  if max_photons < 1 then fail "max_photons must be >= 1";
  Sample
    {
      s_modes;
      s_seed = get_int params "seed" ~default:2024;
      shots;
      chains;
      squeezing = get_num params "squeezing" ~default:0.35;
      max_photons;
    }

let get_opt_num params key =
  match Json.mem key params with
  | None -> None
  | Some v -> (match Json.num v with Some x -> Some x | None -> fail (key ^ " must be a number"))

let parse_analyze params =
  let a_plan =
    match get_str params "plan" with
    | None -> None
    | Some text ->
      (match Plan.of_string text with
       | Ok p -> Some p
       | Error (msg, l) -> fail (Printf.sprintf "plan line %d: %s" l msg))
  in
  let a_key = get_str params "key" in
  if a_plan = None && a_key = None then
    fail "analyze needs a plan (inline text) or a key (disk-cache entry)";
  let a_loss = get_num params "loss" ~default:0. in
  if not (a_loss >= 0. && a_loss <= 1.) then fail "loss must be in [0,1]";
  let a_target = get_target params in
  if
    Option.is_some a_target
    && List.exists (fun k -> Option.is_some (Json.mem k params))
         [ "max_depth"; "loss"; "min_transmission" ]
  then fail "target and manual backend fields (max_depth/loss/min_transmission) are \
             mutually exclusive";
  Analyze
    {
      a_plan;
      a_key;
      a_seed = get_int params "seed" ~default:2024;
      a_tau = get_opt_num params "tau";
      a_max_depth =
        (match get_int params "max_depth" ~default:(-1) with
         | -1 -> None
         | d when d >= 0 -> Some d
         | _ -> fail "max_depth must be >= 0");
      a_loss;
      a_min_transmission = get_num params "min_transmission" ~default:0.;
      a_target;
    }

(* One parsed line: the request id (echoed back verbatim) plus either a
   request or an error reply payload. *)
let parse_line line =
  match Json.parse line with
  | Error msg -> (Json.Null, Error ("parse", msg))
  | Ok v ->
    let id = Option.value ~default:Json.Null (Json.mem "id" v) in
    let params = Option.value ~default:(Json.Obj []) (Json.mem "params" v) in
    (match Option.map Json.str (Json.mem "op" v) with
     | None | Some None -> (id, Error ("bad-request", "missing op field"))
     | Some (Some op) ->
       (try
          match op with
          | "ping" -> (id, Ok Ping)
          | "stats" -> (id, Ok Stats)
          | "shutdown" -> (id, Ok Shutdown)
          | "compile" -> (id, Ok (parse_compile params))
          | "sample" -> (id, Ok (parse_sample params))
          | "analyze" -> (id, Ok (parse_analyze params))
          | _ -> (id, Error ("bad-request", "unknown op " ^ op))
        with Bad_request msg -> (id, Error ("bad-request", msg))))

(* ---------------------------------------------------------------- *)
(* Replies.                                                          *)

let reply_ok id result =
  Json.to_string (Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ])

let reply_error t id code msg =
  t.errors <- t.errors + 1;
  Obs.Counter.incr c_errors;
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str msg) ]);
       ])

let meta_line ?target ~fidelity ~rotations ~modes () =
  let base = Printf.sprintf "fidelity=%h rotations=%d modes=%d" fidelity rotations modes in
  match target with None -> base | Some name -> base ^ " target=" ^ name

(* Both meta generations parse: entries written before targets existed
   lack the trailing [target=] field and come back as [None]. *)
let parse_meta meta =
  try
    Some
      (Scanf.sscanf meta "fidelity=%h rotations=%d modes=%d target=%s"
         (fun f r m tgt -> (f, r, m, Some tgt)))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    (try
       Some
         (Scanf.sscanf meta "fidelity=%h rotations=%d modes=%d"
            (fun f r m -> (f, r, m, None)))
     with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

(* The [format] field reports the artifact encoding backing the reply:
   a disk hit echoes the stored object's encoding ("binary"/"text"); a
   compile reports what the write-through will store — "binary" with a
   disk cache attached, "none" without one. The plan/unitary payload
   fields themselves are always the text renderings (JSON strings carry
   no raw bytes); text round-trips are bit-exact, so the payload is
   identical whichever encoding backs it. *)
let compile_result ?target ~cached ~format ~key (a : answer) =
  Json.Obj
    ([
       ("key", Json.Str key);
       ("cached", Json.Str cached);
       ("format", Json.Str format);
       ("modes", Json.Num (float_of_int a.modes));
       ("rotations", Json.Num (float_of_int a.rotations));
       ("fidelity", Json.Num a.fidelity);
       ("plan", Json.Str a.plan_text);
       ("unitary", Json.Str a.unitary_text);
     ]
     @ match target with None -> [] | Some name -> [ ("target", Json.Str name) ])

let target_name (req : compile_req) =
  Option.map (fun (t : Target.t) -> t.Target.name) req.target

(* One compile: the reply's answer, plus the typed artifacts for the
   (binary) disk store. Pure, so it runs on any domain. *)
type compile_out = { answer : answer; plan : Plan.t; unitary : Mat.t }

let do_compile (req : compile_req) =
  let rng = Rng.create req.seed in
  let c =
    match req.target with
    | Some target ->
      Compiler.compile_for_target ~effort:req.effort ~tau:req.tau ~rng ~target
        ~config:req.config req.u
    | None ->
      let device = Lattice.create ~rows:req.rows ~cols:req.cols in
      Compiler.compile ~effort:req.effort ~tau:req.tau ~rng ~device ~config:req.config
        req.u
  in
  let plan = c.Compiler.plan in
  let unitary = c.Compiler.mapping.Mapping.permuted in
  {
    answer =
      {
        fidelity = Compiler.predicted_fidelity c;
        rotations = Plan.rotation_count plan;
        modes = plan.Plan.modes;
        plan_text = Plan.to_string plan;
        unitary_text = Unitary.to_string unitary;
      };
    plan;
    unitary;
  }

let refresh_cache_gauges t =
  match t.disk with
  | None -> ()
  | Some d ->
    let s = Diskcache.stats d in
    Obs.Gauge.set g_bytes (float_of_int s.Diskcache.bytes);
    Obs.Gauge.set g_entries (float_of_int s.Diskcache.entries);
    Obs.Gauge.set g_evictions (float_of_int s.Diskcache.evictions);
    Obs.Gauge.set g_quarantined (float_of_int s.Diskcache.quarantined);
    Obs.Gauge.set g_mmap_hits (float_of_int s.Diskcache.mmap_hits)

let refresh_hit_rate t =
  let total = t.disk_hits + t.mem_hits + t.misses in
  if total > 0 then
    Obs.Gauge.set g_hit_rate (float_of_int (t.disk_hits + t.mem_hits) /. float_of_int total)

let count_compile t = function
  | `Disk ->
    t.disk_hits <- t.disk_hits + 1;
    Obs.Counter.incr c_disk_hits
  | `Mem ->
    t.mem_hits <- t.mem_hits + 1;
    Obs.Counter.incr c_mem_hits
  | `Miss ->
    t.misses <- t.misses + 1;
    Obs.Counter.incr c_misses

(* Owner-domain completion of a compile miss: write-through to the
   store or the memory tier, count, and render the reply. *)
let finish_compile t id (req : compile_req) outcome =
  match outcome with
  | Error msg -> reply_error t id "internal" msg
  | Ok o ->
    let target = target_name req in
    Option.iter
      (fun d ->
         Diskcache.store d ~key:req.key
           ~meta:
             (meta_line ?target ~fidelity:o.answer.fidelity ~rotations:o.answer.rotations
                ~modes:o.answer.modes ())
           ~plan:o.plan ~unitary:o.unitary)
      t.disk;
    Option.iter (fun m -> Mem.add m req.key o.answer) t.mem;
    count_compile t `Miss;
    reply_ok id
      (compile_result ?target ~cached:"none"
         ~format:
           (match t.disk with
            | Some _ -> Diskcache.format_to_string Diskcache.Binary
            | None -> "none")
         ~key:req.key o.answer)

let mem_reply t id req a =
  count_compile t `Mem;
  reply_ok id
    (compile_result ?target:(target_name req) ~cached:"mem" ~format:"none" ~key:req.key a)

(* The stored answer to a compile, disk else memory, or [None]. *)
let lookup t id (req : compile_req) =
  match Option.map (fun d -> (d, Diskcache.find d req.key)) t.disk with
  | Some (d, Some hit) ->
    (match parse_meta hit.Diskcache.meta with
     | Some (fidelity, rotations, modes, target) ->
       count_compile t `Disk;
       Some
         (reply_ok id
            (compile_result ?target ~cached:"disk"
               ~format:(Diskcache.format_to_string hit.Diskcache.format)
               ~key:req.key
               {
                 fidelity;
                 rotations;
                 modes;
                 plan_text = Plan.to_string hit.Diskcache.plan;
                 unitary_text = Unitary.to_string hit.Diskcache.unitary;
               }))
     | None ->
       (* Readable object, unreadable meta: move it aside so the
          recompile's write-through stores a fresh object (a store on
          an indexed key would only refresh its recency). *)
       Diskcache.quarantine d req.key;
       None)
  | Some (_, None) -> None
  | None -> Option.map (mem_reply t id req) (Option.bind t.mem (fun m -> Mem.find m req.key))

(* A later request in the batch for a key compiled earlier in it: the
   stored answer, or the batch's own outcome when the entry is already
   gone (evicted by the size bound). *)
let duplicate_reply t id (req : compile_req) outcome =
  match outcome with
  | Error msg -> reply_error t id "internal" msg
  | Ok o ->
    (match lookup t id req with Some r -> r | None -> mem_reply t id req o.answer)

let do_sample t (req : sample_req) =
  let rng = Rng.create req.s_seed in
  let u = Unitary.haar_random (Rng.create (req.s_seed + 1)) req.s_modes in
  let state = Gaussian.vacuum req.s_modes in
  for i = 0 to req.s_modes - 1 do
    Gaussian.squeeze state i (Cx.re req.squeezing)
  done;
  Gaussian.interferometer state u;
  let s = Sampler.of_state ~max_photons:req.max_photons state in
  let samples = Sampler.draw_chains ~chains:req.chains ?pool:t.pool rng s req.shots in
  Json.Obj
    [
      ("modes", Json.Num (float_of_int req.s_modes));
      ("shots", Json.Num (float_of_int req.shots));
      ( "samples",
        Json.List
          (List.map
             (fun sample ->
                if sample = Fock.tail then Json.Null
                else Json.List (List.map (fun k -> Json.Num (float_of_int k)) sample))
             samples) );
    ]

(* Static analysis of a plan: either inline text or a disk-cache entry
   analyzed in place. Runs the Flow report plus the lint passes over the
   same subject, so the reply carries both the numbers and any BH11xx
   (or structural) diagnostics. *)
let do_analyze t (req : analyze_req) =
  let plan, unitary, compiled_target =
    match (req.a_plan, req.a_key) with
    | Some p, _ -> (p, None, None)
    | None, Some key ->
      (match t.disk with
       | None -> fail "analyze by key needs a disk cache (start with a cache dir)"
       | Some d ->
         (match Diskcache.find d key with
          | None -> fail ("no cache entry for key " ^ key)
          | Some hit ->
            let stored_target =
              match parse_meta hit.Diskcache.meta with
              | Some (_, _, _, tgt) -> tgt
              | None -> None
            in
            (hit.Diskcache.plan, Some hit.Diskcache.unitary, stored_target)))
    | None, None -> assert false (* parse_analyze rejects this shape *)
  in
  (* A structurally broken plan can be neither replayed for a policy
     nor analyzed: refuse it with its first BH0403/BH0406 finding. *)
  (match Lint.plan_structure plan with
   | [] -> ()
   | d :: rest ->
     fail
       (Format.asprintf "structurally broken plan: %s %a: %s%s" d.Diag.code
          Diag.pp_location d.Diag.location d.Diag.message
          (if rest = [] then "" else Printf.sprintf " (and %d more)" (List.length rest))));
  (* Same policy reconstruction as `bosec analyze --tau`: the hard mask
     of the deterministic policy is what a shot actually keeps. *)
  let policy =
    Option.map
      (fun tau ->
         let reference =
           match unitary with
           | Some u when Mat.dims u = (plan.Plan.modes, plan.Plan.modes) -> u
           | Some _ | None -> Plan.reconstruct plan
         in
         Dropout.make_policy (Rng.create req.a_seed) plan reference ~tau)
      req.a_tau
  in
  let backend =
    match req.a_target with
    | Some target -> Flow.backend_of_target ~n:plan.Plan.modes target
    | None ->
      let noise = if req.a_loss > 0. then Noise.uniform req.a_loss else Noise.ideal in
      Flow.backend ?max_depth:req.a_max_depth ~noise
        ~min_transmission:req.a_min_transmission ()
  in
  let kept = Option.map (fun pol -> Dropout.hard_kept pol plan) policy in
  let report = Flow.analyze ?kept ~backend plan in
  let subject =
    {
      Lint.empty with
      Lint.plan = Some plan;
      reference =
        (match unitary with
         | Some u when Mat.dims u = (plan.Plan.modes, plan.Plan.modes) -> unitary
         | _ -> None);
      policy;
      backend = Some backend;
      target_name = Option.map (fun (t : Target.t) -> t.Target.name) req.a_target;
      compiled_target;
    }
  in
  let diags = Lint.run subject in
  Json.Obj
    ([
       ("modes", Json.Num (float_of_int plan.Plan.modes));
       ("report", Flow.report_to_json report);
       ("diagnostics", Diag.to_json diags);
       ("errors", Json.Num (float_of_int (Lint.errors diags)));
     ]
     @
     match req.a_target with
     | None -> []
     | Some (t : Target.t) -> [ ("target", Json.Str t.Target.name) ])

let stats_result t =
  let mem_hits, mem_misses, mem_entries =
    match t.mem with
    | None -> (0, 0, 0)
    | Some m -> (m.Mem.hits, m.Mem.misses, Hashtbl.length m.Mem.tbl)
  in
  let disk =
    match t.disk with
    | None -> Json.Null
    | Some d ->
      let s = Diskcache.stats d in
      Json.Obj
        [
          ("dir", Json.Str (Diskcache.dir d));
          ("hits", Json.Num (float_of_int s.Diskcache.hits));
          ("misses", Json.Num (float_of_int s.Diskcache.misses));
          ("entries", Json.Num (float_of_int s.Diskcache.entries));
          ("bytes", Json.Num (float_of_int s.Diskcache.bytes));
          ("evictions", Json.Num (float_of_int s.Diskcache.evictions));
          ("quarantined", Json.Num (float_of_int s.Diskcache.quarantined));
          ("max_bytes", Json.Num (float_of_int s.Diskcache.max_bytes));
          ("mmap_hits", Json.Num (float_of_int s.Diskcache.mmap_hits));
        ]
  in
  Json.Obj
    [
      ("requests", Json.Num (float_of_int t.requests));
      ("errors", Json.Num (float_of_int t.errors));
      ( "compile",
        Json.Obj
          [
            ("disk_hits", Json.Num (float_of_int t.disk_hits));
            ("mem_hits", Json.Num (float_of_int t.mem_hits));
            ("misses", Json.Num (float_of_int t.misses));
          ] );
      ( "mem_cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int mem_hits));
            ("misses", Json.Num (float_of_int mem_misses));
            ("entries", Json.Num (float_of_int mem_entries));
          ] );
      ("disk_cache", disk);
      ( "jobs",
        Json.Num (float_of_int (match t.pool with None -> 1 | Some p -> Pool.domains p))
      );
    ]

(* ---------------------------------------------------------------- *)
(* Batch engine. All cache traffic stays on the owner domain; only the
   pure compile work of cache misses fans out to the pool.            *)

let handle_many t lines =
  let t0 = Obs.now () in
  let parsed = Array.of_list (List.map parse_line lines) in
  let n = Array.length parsed in
  t.requests <- t.requests + n;
  Obs.Counter.incr ~by:n c_requests;
  let replies = Array.make n "" in
  (* Phase 1: everything except compile misses, plus cache lookups.
     The first miss of each key compiles; later requests for the key
     wait for it. [owner] maps a key to its compile's place in
     [misses]. *)
  let miss_idx = ref [] and dup_idx = ref [] in
  let owner = Hashtbl.create 8 in
  Array.iteri
    (fun i (id, req) ->
       match req with
       | Error (code, msg) -> replies.(i) <- reply_error t id code msg
       | Ok Ping -> replies.(i) <- reply_ok id (Json.Obj [ ("pong", Json.Bool true) ])
       | Ok Stats -> replies.(i) <- reply_ok id (stats_result t)
       | Ok Shutdown ->
         t.stop <- true;
         replies.(i) <- reply_ok id (Json.Obj [ ("stopping", Json.Bool true) ])
       | Ok (Sample req) ->
         replies.(i) <-
           (try reply_ok id (do_sample t req)
            with e -> reply_error t id "internal" (Printexc.to_string e))
       | Ok (Analyze req) ->
         replies.(i) <-
           (try reply_ok id (do_analyze t req)
            with
            | Bad_request msg -> reply_error t id "bad-request" msg
            | e -> reply_error t id "internal" (Printexc.to_string e))
       | Ok (Compile req) ->
         if Hashtbl.mem owner req.key then dup_idx := i :: !dup_idx
         else begin
           match lookup t id req with
           | Some r -> replies.(i) <- r
           | None ->
             Hashtbl.add owner req.key (Hashtbl.length owner);
             miss_idx := i :: !miss_idx
         end)
    parsed;
  (* Phase 2: compile misses, one per key. Two or more fan out over
     the pool; a single miss compiles inline. *)
  let misses = Array.of_list (List.rev !miss_idx) in
  let job i =
    match snd parsed.(i) with
    | Ok (Compile req) -> req
    | _ -> assert false
  in
  let compile i = try Ok (do_compile (job i)) with e -> Error (Printexc.to_string e) in
  let outcomes =
    match t.pool with
    | Some pool when Array.length misses > 1 -> Pool.map pool compile misses
    | _ -> Array.map compile misses
  in
  Array.iteri
    (fun k i -> replies.(i) <- finish_compile t (fst parsed.(i)) (job i) outcomes.(k))
    misses;
  (* Phase 3: the waiting duplicates, after the write-through. *)
  List.iter
    (fun i ->
       let req = job i in
       replies.(i) <- duplicate_reply t (fst parsed.(i)) req outcomes.(Hashtbl.find owner req.key))
    (List.rev !dup_idx);
  refresh_hit_rate t;
  refresh_cache_gauges t;
  Obs.Histo.observe h_batch_s (Obs.now () -. t0);
  Array.to_list replies

let handle_line t line =
  match handle_many t [ line ] with [ r ] -> r | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Transports.                                                       *)

let serve_channels t ic oc =
  let rec loop () =
    if not t.stop then
      match (try Some (input_line ic) with End_of_file -> None) with
      | None -> ()
      | Some line ->
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ();
  shutdown t

(* Unix-domain socket server: one select loop, per-client line buffers,
   any number of concurrent clients. Complete lines arriving in the
   same select round (across all clients) form one pool batch. *)
type client = { fd : Unix.file_descr; pending : Buffer.t  (** A partial line. *) }

(* Write [s] and its newline without copying [s]: the bulk goes
   straight from the string, the last [Bytes.length tail - 1] bytes
   go with the newline through [tail], so a reply that fits leaves in
   one write. *)
let write_line fd tail s =
  let len = String.length s in
  let head = max 0 (len - (Bytes.length tail - 1)) in
  let rec bulk off = if off < head then bulk (off + Unix.write_substring fd s off (head - off)) in
  bulk 0;
  let k = len - head in
  Bytes.blit_string s head tail 0 k;
  Bytes.set tail k '\n';
  let rec last off = if off <= k then last (off + Unix.write fd tail off (k + 1 - off)) in
  last 0

let serve_socket t ~path =
  if Sys.file_exists path then Sys.remove path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  (* A client that hangs up before its reply is read would otherwise
     kill the process with SIGPIPE; ignored, the write fails with EPIPE
     (or ECONNRESET) and only that client is dropped. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let clients = ref [] in
  let close_client c =
    clients := List.filter (fun c' -> c'.fd != c.fd) !clients;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let chunk = Bytes.create 65536 and tail = Bytes.create 65536 in
  (* Complete lines in the [n] bytes just read. Only those bytes are
     scanned, so a long line costs linear time; its head waits in
     [pending], which is reset (not kept at its peak size) after. *)
  let take_lines c n emit =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get chunk i = '\n' then begin
        Buffer.add_subbytes c.pending chunk !start (i - !start);
        emit (Buffer.contents c.pending);
        Buffer.reset c.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.pending chunk !start (n - !start)
  in
  while not t.stop do
    let fds = srv :: List.map (fun c -> c.fd) !clients in
    let ready, _, _ =
      try Unix.select fds [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* Gather one batch of lines across every readable client. *)
    let batch = ref [] in
    List.iter
      (fun fd ->
         if fd == srv then begin
           match Unix.accept srv with
           | cfd, _ -> clients := { fd = cfd; pending = Buffer.create 256 } :: !clients
           | exception Unix.Unix_error _ -> ()
         end
         else
           match List.find_opt (fun c -> c.fd == fd) !clients with
           | None -> ()
           | Some c ->
             (match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> close_client c
              | n -> take_lines c n (fun line -> batch := (c, line) :: !batch)
              | exception Unix.Unix_error _ -> close_client c))
      ready;
    let batch = List.rev !batch in
    if batch <> [] then begin
      let replies = handle_many t (List.map snd batch) in
      List.iter2
        (fun (c, _) reply ->
           (* A failed write (EPIPE, ECONNRESET) is that client's
              disconnect; its later replies in the batch are dropped. *)
           if List.memq c !clients then
             try write_line c.fd tail reply with Unix.Unix_error _ -> close_client c)
        batch replies
    end
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  Sys.set_signal Sys.sigpipe sigpipe;
  shutdown t
