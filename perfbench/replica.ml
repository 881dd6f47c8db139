(* The traced replica: replays request lines in-process and times each
   call into a layer's public function, in the order [Serve.handle_many]
   makes them for a compile request — parse, Haar regeneration or
   unitary parse, cache key, store lookup, then either the hit rendering
   or the four passes through a copying pass cache as [Pipeline.run]
   drives them, followed by text rendering, the store
   write and the JSON reply. RNG draws follow the compile's own order
   (polish, then dropout), so the replica's artifacts must be the
   served ones byte for byte.

   Each request is also answered by an untraced in-process [Serve.t]
   ([serve.handle_ms]); the layer times are measured against it. *)

module Json = Bose_serve.Json
module Serve = Bose_serve.Serve
module Diskcache = Bose_store.Diskcache
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Lattice = Bose_hardware.Lattice
module Pool = Bose_par.Pool
module Obs = Bose_obs.Obs
module Rng = Bose_util.Rng
module Pass = Bosehedral.Pass
module Pipeline = Bosehedral.Pipeline
module Config = Bosehedral.Config

let now = Server.now_ms

(* Layers whose times add up to one request's [serve.handle_ms]. *)
let covered =
  [
    "json.parse"; "linalg.haar"; "linalg.unitary_parse"; "core.key"; "store.find";
    "core.pipeline"; "hardware.embed"; "mapping.optimize"; "mapping.polish";
    "decomp.eliminate"; "dropout.policy"; "decomp.plan_text"; "linalg.unitary_text";
    "store.store"; "json.render";
  ]

(* Serve's disk-store bound, [bosec serve --max-cache-mb] default. *)
let store_bytes = 64 * 1024 * 1024

type t = {
  serve : Serve.t;
  store : Diskcache.t;
  cache : (string, Pass.artifact) Hashtbl.t;
      (** Mirrors serve's in-memory pass cache, which copies artifacts on
          insert and on hit; only embed keys repeat across requests. *)
  mutable eliminations : (Bose_hardware.Pattern.t * Mat.t * Plan.t) list;
      (** Each compile's elimination input and plan, for {!par_check}. *)
  sums : (string, float) Hashtbl.t;  (** Layer name -> total ms. *)
  mutable handle_ms : float list;
  mutable traced_ms : float;
  mutable requests : int;
  mutable compiles : int;
  mutable decompositions : int;
  mutable polish_trials : int;
  mutable polish_accepted : int;
  mutable fidelity_evals : int;
  mutable eliminated : float;  (** Σ rotations × 2N over timed eliminations. *)
  store_open_ms : float;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let create ~serve_dir ~store_dir =
  let opens =
    List.init 5 (fun _ ->
        let t0 = now () in
        let s = Diskcache.open_ ~dir:store_dir ~max_bytes:store_bytes in
        (s, now () -. t0))
  in
  {
    serve = Serve.create ~jobs:1 ~cache_dir:serve_dir ();
    store = fst (List.nth opens 4);
    cache = Hashtbl.create 256;
    eliminations = [];
    sums = Hashtbl.create 32;
    handle_ms = [];
    traced_ms = 0.;
    requests = 0;
    compiles = 0;
    decompositions = 0;
    polish_trials = 0;
    polish_accepted = 0;
    fidelity_evals = 0;
    eliminated = 0.;
    store_open_ms = median (List.map snd opens);
  }

let shutdown t = Serve.shutdown t.serve

let add t name ms =
  Hashtbl.replace t.sums name (ms +. Option.value ~default:0. (Hashtbl.find_opt t.sums name))

let time t name f =
  let t0 = now () in
  let r = f () in
  add t name (now () -. t0);
  r

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* [Serve.compile_key], over the same fingerprint primitives. *)
let compile_key ~config ~tau ~effort ~rows ~cols u =
  let open Pass.Fingerprint in
  let h =
    int
      (int
         (string (float (string (string seed "serve.compile.v1") (Config.name config)) tau)
            (Pass.effort_name effort))
         rows)
      cols
  in
  to_hex (mat h u)

(* One pass body, as the registry's [run] does it, with the mapping
   pass split into its two calls. *)
let run_pass t (ctx : Pass.ctx) (p : Pass.t) =
  let n = Mat.rows ctx.Pass.unitary in
  match p.Pass.name with
  | "embed" -> time t "hardware.embed" (fun () -> p.Pass.run ctx)
  | "map" ->
    let pattern = Pass.pattern_exn ctx in
    Pass.Amapping
      (if Config.uses_mapping ctx.Pass.config then begin
         let first =
           time t "mapping.optimize" (fun () ->
               Mapping.optimize ~ws:ctx.Pass.ws
                 ?candidate_ks:(Pass.mapping_candidates ctx.Pass.effort n)
                 pattern ctx.Pass.unitary)
         in
         let trials = Pass.polish_trials ctx.Pass.effort n in
         if trials > 0 then
           time t "mapping.polish" (fun () ->
               Mapping.polish ~ws:ctx.Pass.ws ~trials ~tau:ctx.Pass.tau ~rng:ctx.Pass.rng
                 pattern first)
         else first
       end
       else time t "mapping.optimize" (fun () -> Mapping.trivial ctx.Pass.unitary))
  | "decompose" ->
    Pass.Aplan
      (time t "decomp.eliminate" (fun () ->
           Eliminate.decompose ~ws:ctx.Pass.ws (Pass.pattern_exn ctx)
             (Pass.mapping_exn ctx).Mapping.permuted))
  | "dropout" ->
    Pass.Apolicy
      (if Config.uses_dropout ctx.Pass.config then begin
         let powers, iterations = Pass.dropout_knobs ctx.Pass.effort n in
         Some
           (time t "dropout.policy" (fun () ->
                Dropout.make_policy ~ws:ctx.Pass.ws ~powers ~iterations ctx.Pass.rng
                  (Pass.plan_exn ctx) (Pass.mapping_exn ctx).Mapping.permuted ~tau:ctx.Pass.tau))
       end
       else None)
  | other -> failwith ("replica: unknown pass " ^ other)

(* The compile, as [Pipeline.run ~cache] drives the default registry:
   fingerprint, cache lookup, run on a miss, insert. *)
let compile t ~rows ~cols ~seed ~tau ~config u =
  let ctx =
    Pass.context ~effort:Pass.Standard ~tau ~rng:(Rng.create seed)
      ~device:(Lattice.create ~rows ~cols) ~config ~source:Pass.Device ~ws:(Mat.workspace ()) u
  in
  List.iter
    (fun (p : Pass.t) ->
       let key =
         time t "core.pipeline" (fun () ->
             p.Pass.name ^ ":" ^ Pass.Fingerprint.to_hex (p.Pass.fingerprint ctx))
       in
       match
         time t "core.pipeline" (fun () ->
             Option.map Pass.copy_artifact (Hashtbl.find_opt t.cache key))
       with
       | Some a -> Pass.store ctx a
       | None ->
         let a = run_pass t ctx p in
         Pass.store ctx a;
         time t "core.pipeline" (fun () -> Hashtbl.replace t.cache key (Pass.copy_artifact a)))
    (Pipeline.passes Pipeline.default);
  ctx

type outcome = {
  served : string;  (** The untraced in-process [Serve.handle_line] reply. *)
  reply : string;  (** The replica's own reply. *)
  kept : int option;  (** The dropout policy's kept count, when a compile ran one. *)
}

let replay t line =
  Obs.disable ();
  let t0 = now () in
  let served = Serve.handle_line t.serve line in
  t.handle_ms <- (now () -. t0) :: t.handle_ms;
  t.requests <- t.requests + 1;
  Obs.reset ();
  Obs.enable ();
  let t1 = now () in
  let v =
    match time t "json.parse" (fun () -> Json.parse line) with
    | Ok v -> v
    | Error m -> failwith ("replica: request does not parse: " ^ m)
  in
  let params = Option.value ~default:(Json.Obj []) (Json.mem "params" v) in
  let get conv k default =
    match Option.map conv (Json.mem k params) with Some (Some x) -> x | Some None | None -> default
  in
  let rows = get Json.int "rows" 6 and cols = get Json.int "cols" 6 in
  let seed = get Json.int "seed" 2024 and tau = get Json.num "tau" 0.999 in
  let get_str k = Option.bind (Json.mem k params) Json.str in
  let config =
    Option.value ~default:Config.Full_opt (Option.bind (get_str "config") Config.of_string)
  in
  let u =
    match get_str "unitary" with
    | Some text ->
      (match time t "linalg.unitary_parse" (fun () -> Unitary.of_string text) with
       | Ok u -> u
       | Error (m, _) -> failwith ("replica: unitary does not parse: " ^ m))
    | None ->
      time t "linalg.haar" (fun () ->
          Unitary.haar_random (Rng.create seed) (get Json.int "modes" 6))
  in
  let key =
    time t "core.key" (fun () -> compile_key ~config ~tau ~effort:Pass.Standard ~rows ~cols u)
  in
  let cached, format, fidelity, rotations, modes, plan_text, unitary_text, kept =
    match time t "store.find" (fun () -> Diskcache.find t.store key) with
    | Some hit ->
      let fidelity, rotations, modes =
        Scanf.sscanf hit.Diskcache.meta "fidelity=%h rotations=%d modes=%d" (fun f r m ->
            (f, r, m))
      in
      let plan_text = time t "decomp.plan_text" (fun () -> Plan.to_string hit.Diskcache.plan) in
      let unitary_text =
        time t "linalg.unitary_text" (fun () -> Unitary.to_string hit.Diskcache.unitary)
      in
      ( "disk", Diskcache.format_to_string hit.Diskcache.format, fidelity, rotations, modes,
        plan_text, unitary_text, None )
    | None ->
      t.compiles <- t.compiles + 1;
      let ctx = compile t ~rows ~cols ~seed ~tau ~config u in
      let plan = Pass.plan_exn ctx in
      let permuted = (Pass.mapping_exn ctx).Mapping.permuted in
      let fidelity =
        match ctx.Pass.policy with None -> 1. | Some p -> p.Dropout.expected_fidelity
      in
      let rotations = Plan.rotation_count plan and modes = plan.Plan.modes in
      let plan_text = time t "decomp.plan_text" (fun () -> Plan.to_string plan) in
      let unitary_text = time t "linalg.unitary_text" (fun () -> Unitary.to_string permuted) in
      time t "store.store" (fun () ->
          Diskcache.store t.store ~key
            ~meta:(Printf.sprintf "fidelity=%h rotations=%d modes=%d" fidelity rotations modes)
            ~plan ~unitary:permuted);
      t.eliminated <- t.eliminated +. float_of_int (rotations * 2 * modes);
      t.eliminations <- (Pass.pattern_exn ctx, permuted, plan) :: t.eliminations;
      ( "none", Diskcache.format_to_string Diskcache.Binary, fidelity, rotations, modes,
        plan_text, unitary_text,
        Option.map (fun p -> p.Dropout.kept_count) ctx.Pass.policy )
  in
  let reply =
    time t "json.render" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("id", Option.value ~default:Json.Null (Json.mem "id" v));
               ("ok", Json.Bool true);
               ( "result",
                 Json.Obj
                   [
                     ("key", Json.Str key);
                     ("cached", Json.Str cached);
                     ("format", Json.Str format);
                     ("modes", Json.Num (float_of_int modes));
                     ("rotations", Json.Num (float_of_int rotations));
                     ("fidelity", Json.Num fidelity);
                     ("plan", Json.Str plan_text);
                     ("unitary", Json.Str unitary_text);
                   ] );
             ]))
  in
  t.traced_ms <- t.traced_ms +. (now () -. t1);
  if cached = "none" then begin
    t.decompositions <- t.decompositions + counter "decomp.decompositions";
    t.polish_trials <- t.polish_trials + counter "map.polish_trials";
    t.polish_accepted <- t.polish_accepted + counter "map.polish_accepted";
    t.fidelity_evals <- t.fidelity_evals + counter "dropout.fidelity_evals"
  end;
  Obs.disable ();
  { served; reply; kept }

(* Not on serve's path: every compile's elimination again, chunked over
   a 2-domain pool; returns how many plans differ from the serial ones.
   Run after the replay, because an idle second domain slows every
   single-domain compile in the process (~1.6x measured on serve-cold). *)
let par_check t =
  Pool.with_pool ~domains:2 (fun pool ->
      List.fold_left
        (fun bad (pattern, permuted, (plan : Plan.t)) ->
           let p2 =
             time t "par.eliminate_2dom" (fun () -> Eliminate.decompose ~pool pattern permuted)
           in
           if p2.Plan.elements = plan.Plan.elements && p2.Plan.lambda = plan.Plan.lambda then bad
           else bad + 1)
        0 t.eliminations)

(* Per-layer metrics: times are means per replayed request (a layer
   that did not run for a request contributes 0), counts are per
   compile. [e2e_p50_ms] is the socket run's median latency. *)
let metrics t ~e2e_p50_ms =
  let n = float_of_int (max 1 t.requests) in
  let sum name = Option.value ~default:0. (Hashtbl.find_opt t.sums name) in
  let per_req name = sum name /. n in
  let per_compile x = float_of_int x /. float_of_int (max 1 t.compiles) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let handle_total = List.fold_left ( +. ) 0. t.handle_ms in
  let covered_total = List.fold_left (fun acc l -> acc +. sum l) 0. covered in
  let st = Diskcache.stats t.store in
  let ms name = (name ^ "_ms", per_req name, "ms") in
  [
    ("serve.handle_ms", handle_total /. n, "ms");
    ("serve.transport_ms", e2e_p50_ms -. median t.handle_ms, "ms");
    ms "json.parse"; ms "json.render"; ms "linalg.haar"; ms "linalg.unitary_parse";
    ms "linalg.unitary_text"; ms "decomp.plan_text"; ms "core.key"; ms "core.pipeline";
    ("store.open_ms", t.store_open_ms, "ms");
    ms "store.find"; ms "store.store";
    ("store.hit_ratio", ratio st.Diskcache.hits (st.Diskcache.hits + st.Diskcache.misses), "ratio");
    ("store.mmap_share", ratio st.Diskcache.mmap_hits st.Diskcache.hits, "ratio");
    ms "hardware.embed"; ms "mapping.optimize"; ms "mapping.polish";
    ("mapping.decompositions", per_compile t.decompositions, "count");
    ("mapping.polish_accept_ratio", ratio t.polish_accepted t.polish_trials, "ratio");
    ms "decomp.eliminate";
    ( "decomp.melems_s",
      (let s = sum "decomp.eliminate" in
       if s = 0. then 0. else t.eliminated /. 1e6 /. (s /. 1000.)),
      "Melem/s" );
    ms "par.eliminate_2dom"; ms "dropout.policy";
    ("dropout.fidelity_evals", per_compile t.fidelity_evals, "count");
    ("trace.requests", float_of_int t.requests, "count");
    ("trace.coverage", (if handle_total = 0. then 0. else covered_total /. handle_total), "ratio");
    ( "trace.overhead",
      (if handle_total = 0. then 0. else (t.traced_ms /. handle_total) -. 1.),
      "ratio" );
  ]
