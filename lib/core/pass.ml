module Cx = Bose_linalg.Cx
module Mat = Bose_linalg.Mat
module Perm = Bose_linalg.Perm
module Lattice = Bose_hardware.Lattice
module Pattern = Bose_hardware.Pattern
module Embedding = Bose_hardware.Embedding
module Plan = Bose_decomp.Plan
module Eliminate = Bose_decomp.Eliminate
module Mapping = Bose_mapping.Mapping
module Dropout = Bose_dropout.Dropout
module Rng = Bose_util.Rng
module Obs = Bose_obs.Obs

type effort = Fast | Standard

let effort_name = function Fast -> "fast" | Standard -> "standard"

type pattern_source = Device | Explicit of Pattern.t

(* The shared compile context: immutable job inputs up front, one
   mutable cell per artifact kind. Passes read the artifacts of the
   passes before them and store exactly one artifact; [Pipeline.run]
   owns sequencing. *)
type ctx = {
  unitary : Mat.t;
  config : Config.t;
  tau : float;
  effort : effort;
  device : Lattice.t;
  source : pattern_source;
  target : string option;
  rng : Rng.t;
  ws : Mat.workspace;
  mutable pattern : Pattern.t option;
  mutable mapping : Mapping.t option;
  mutable plan : Plan.t option;
  mutable policy : Dropout.policy option;
}

let context ?(effort = Standard) ?(tau = 0.999) ?target ~rng ~device ~config ~source ~ws u =
  {
    unitary = u;
    config;
    tau;
    effort;
    device;
    source;
    target;
    rng;
    ws;
    pattern = None;
    mapping = None;
    plan = None;
    policy = None;
  }

type kind = Kpattern | Kmapping | Kplan | Kpolicy

type artifact =
  | Apattern of Pattern.t
  | Amapping of Mapping.t
  | Aplan of Plan.t
  | Apolicy of Dropout.policy option

let store ctx = function
  | Apattern p -> ctx.pattern <- Some p
  | Amapping m -> ctx.mapping <- Some m
  | Aplan p -> ctx.plan <- Some p
  | Apolicy p -> ctx.policy <- p

let missing name = invalid_arg ("Pass: " ^ name ^ " artifact not produced yet")
let pattern_exn ctx = match ctx.pattern with Some p -> p | None -> missing "pattern"
let mapping_exn ctx = match ctx.mapping with Some m -> m | None -> missing "mapping"
let plan_exn ctx = match ctx.plan with Some p -> p | None -> missing "plan"

(* Deep copies for perfbench/replica.ml's pass-cache model; no compile
   path copies. Patterns and permutations are immutable and shared. *)
let copy_mapping (m : Mapping.t) = { m with Mapping.permuted = Mat.copy m.Mapping.permuted }

let copy_plan (t : Plan.t) =
  { t with Plan.elements = Array.copy t.Plan.elements; lambda = Array.copy t.Plan.lambda }

let copy_policy (p : Dropout.policy) =
  { p with Dropout.weights = Array.copy p.Dropout.weights }

let copy_artifact = function
  | Apattern p -> Apattern p
  | Amapping m -> Amapping (copy_mapping m)
  | Aplan p -> Aplan (copy_plan p)
  | Apolicy p -> Apolicy (Option.map copy_policy p)

(* ------------------------------------------------------------------ *)
(* Content fingerprints: FNV-1a over bytes. The primitives key serve's
   request caches and compile_batch's RNG streams.                    *)

module Fingerprint = struct
  type t = int64

  let seed = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L
  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

  let int64 h v =
    let h = ref h in
    for i = 0 to 7 do
      h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done;
    !h

  let int h v = int64 h (Int64.of_int v)
  let float h f = int64 h (Int64.bits_of_float f)
  let bool h b = byte h (if b then 1 else 0)
  let string h s = String.fold_left (fun h c -> byte h (Char.code c)) h s

  let mat h (u : Mat.t) =
    let h = ref (int (int h (Mat.rows u)) (Mat.cols u)) in
    for i = 0 to Mat.rows u - 1 do
      for j = 0 to Mat.cols u - 1 do
        let (v : Cx.t) = Mat.get u i j in
        h := float (float !h v.re) v.im
      done
    done;
    !h

  let pattern h p =
    let n = Pattern.size p in
    let h = ref (int h n) in
    for m = 0 to n - 1 do
      List.iter (fun nb -> h := int !h nb) (Pattern.neighbors p m);
      h := int !h (match Pattern.site p m with None -> -1 | Some s -> s);
      h := bool !h (Pattern.on_main_path p m)
    done;
    !h

  let perm h p = Array.fold_left int h (Perm.to_array p)
  let to_hex = Printf.sprintf "%016Lx"
end

(* The per-pass fingerprints, kept because perfbench/replica.ml keys
   its pass-cache model with them. Shared job prefix: config + tau +
   effort (+ the target name when compiling for one); each pass
   extends it with the slices (unitary bytes, upstream artifacts) it
   reads. *)
let base_fp ctx =
  let open Fingerprint in
  let h = string seed (Config.name ctx.config) in
  let h = float h ctx.tau in
  let h = string h (effort_name ctx.effort) in
  match ctx.target with None -> h | Some name -> string (string h "target") name

let embed_fp ctx =
  let open Fingerprint in
  let h = int (base_fp ctx) (Mat.rows ctx.unitary) in
  match ctx.source with
  | Device -> int (int (string h "device") (Lattice.rows ctx.device)) (Lattice.cols ctx.device)
  | Explicit p -> pattern (string h "explicit") p

let map_fp ctx = Fingerprint.(pattern (mat (base_fp ctx) ctx.unitary) (pattern_exn ctx))

let mapping_content h (m : Mapping.t) =
  let open Fingerprint in
  perm (perm (mat h m.Mapping.permuted) m.Mapping.row_perm) m.Mapping.col_perm

let decompose_fp ctx =
  mapping_content (Fingerprint.pattern (base_fp ctx) (pattern_exn ctx)) (mapping_exn ctx)

let dropout_fp ctx =
  (* Plan.to_string is the bit-exact hex-float serialization, so the
     plan folds in by content without a bespoke walker. *)
  let h = Fingerprint.string (base_fp ctx) (Plan.to_string (plan_exn ctx)) in
  Fingerprint.mat h (mapping_exn ctx).Mapping.permuted

(* ------------------------------------------------------------------ *)
(* The pass registry entries. [run] bodies are verbatim the stages the
   monolithic Compiler.compile used to hardcode — bit-exact outputs and
   identical RNG draw order are load-bearing (pinned by
   test/test_pipeline.ml).                                             *)

type t = {
  name : string;
  span : string;
  doc : string;
  produces : kind;
  depends : kind list;
  fingerprint : ctx -> Fingerprint.t;
  run : ctx -> artifact;
  skip : (ctx -> artifact) option;
}

let can_skip p = Option.is_some p.skip

let mapping_candidates effort n =
  match effort with
  | Standard -> None (* Mapping.optimize defaults *)
  | Fast -> Some [ max 1 (n / 3); max 1 (n / 2) ]

let dropout_knobs effort n =
  match effort with
  | Standard -> ([ 1; 2; 5; 10; 20; 50; 100 ], 40)
  | Fast -> ([ 1; 20; 100 ], max 4 (min 10 (4000 / (n + 1))))

(* The polish hill-climb pays one O(N³) decomposition per trial: scale
   the trial count so the pass stays a modest fraction of compile time. *)
let polish_trials effort n =
  let base = match effort with Standard -> 500 | Fast -> 150 in
  min base (max 0 (600_000_000 / (n * n * n)))

let embed =
  {
    name = "embed";
    span = "compile.embed";
    doc = "device + config -> elimination pattern (tree template or chain), paper §IV";
    produces = Kpattern;
    depends = [];
    fingerprint = embed_fp;
    run =
      (fun ctx ->
        let n = Mat.rows ctx.unitary in
        Apattern
          (match ctx.source with
           | Device ->
             if Config.uses_tree_pattern ctx.config then Embedding.for_program ctx.device n
             else Embedding.baseline ctx.device n
           | Explicit p -> if Config.uses_tree_pattern ctx.config then p else Pattern.chain n));
    skip = Some (fun ctx -> Apattern (Pattern.chain (Mat.rows ctx.unitary)));
  }

let map =
  {
    name = "map";
    span = "compile.map";
    doc = "unitary + pattern -> row/col relabeling permutations, paper §V";
    produces = Kmapping;
    depends = [ Kpattern ];
    fingerprint = map_fp;
    run =
      (fun ctx ->
        let n = Mat.rows ctx.unitary in
        let pattern = pattern_exn ctx in
        Amapping
          (if Config.uses_mapping ctx.config then begin
             let first =
               Mapping.optimize ~ws:ctx.ws
                 ?candidate_ks:(mapping_candidates ctx.effort n)
                 pattern ctx.unitary
             in
             let trials = polish_trials ctx.effort n in
             if trials > 0 then
               Obs.Span.with_ "compile.map.polish" (fun () ->
                   Mapping.polish ~ws:ctx.ws ~trials ~tau:ctx.tau ~rng:ctx.rng pattern first)
             else first
           end
           else Mapping.trivial ctx.unitary));
    skip = Some (fun ctx -> Amapping (Mapping.trivial ctx.unitary));
  }

let decompose =
  {
    name = "decompose";
    span = "compile.decompose";
    doc = "permuted unitary -> Givens-rotation plan along the pattern, paper §IV-A";
    produces = Kplan;
    depends = [ Kpattern; Kmapping ];
    fingerprint = decompose_fp;
    run =
      (fun ctx ->
        Aplan
          (Eliminate.decompose ~ws:ctx.ws (pattern_exn ctx)
             (mapping_exn ctx).Mapping.permuted));
    skip = None;
  }

let dropout =
  {
    name = "dropout";
    span = "compile.dropout";
    doc = "plan + tau -> probabilistic gate-dropout policy, paper §VI";
    produces = Kpolicy;
    depends = [ Kplan; Kmapping ];
    fingerprint = dropout_fp;
    run =
      (fun ctx ->
        Apolicy
          (if Config.uses_dropout ctx.config then begin
             let n = Mat.rows ctx.unitary in
             let powers, iterations = dropout_knobs ctx.effort n in
             Some
               (Dropout.make_policy ~ws:ctx.ws ~powers ~iterations ctx.rng (plan_exn ctx)
                  (mapping_exn ctx).Mapping.permuted ~tau:ctx.tau)
           end
           else None));
    skip = Some (fun _ -> Apolicy None);
  }
