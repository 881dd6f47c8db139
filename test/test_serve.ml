(* bosec serve: the disk-backed artifact store and the JSON request
   engine. Pins the PR's headline contract — a compile artifact served
   from the on-disk cache after a restart is bit-identical to the one
   the original compile returned — plus the failure modes: corrupted
   objects are quarantined (and reported as BH12xx diagnostics), never
   raised, and concurrent socket clients each get their own replies. *)

module Rng = Bose_util.Rng
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary
module Plan = Bose_decomp.Plan
module Lattice = Bose_hardware.Lattice
module Diskcache = Bose_store.Diskcache
module Lint = Bose_lint.Lint
module Diag = Bose_lint.Diag
module Json = Bose_util.Json
module Serve = Bose_serve.Serve

(* Fresh temp directory per test; contents removed best-effort. *)
let temp_dir_counter = ref 0

let fresh_dir () =
  incr temp_dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bosec-test-serve.%d.%d" (Unix.getpid ()) !temp_dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let sample_artifacts seed n =
  let u = Unitary.haar_random (Rng.create seed) n in
  let device = Lattice.create ~rows:n ~cols:1 in
  let c =
    Bosehedral.Compiler.compile ~rng:(Rng.create (seed + 1)) ~device
      ~config:Bosehedral.Config.Baseline u
  in
  ( c.Bosehedral.Compiler.plan,
    c.Bosehedral.Compiler.mapping.Bose_mapping.Mapping.permuted )

(* A PR 6-era object file: v1 container, text artifacts, no format
   line. The store must keep reading these. *)
let render_v1 ~key ~meta ~plan_text ~unitary_text =
  Printf.sprintf "bosec-object 1\nkey %s\nmeta %s\nplan %d\n%sunitary %d\n%send\n" key
    meta (String.length plan_text) plan_text (String.length unitary_text) unitary_text

(* ------------------------------------------------- unitary strings *)

let test_unitary_string_roundtrip () =
  let u = Unitary.haar_random (Rng.create 5) 6 in
  let text = Unitary.to_string u in
  match Unitary.of_string text with
  | Error (msg, l) -> Alcotest.failf "of_string failed: %s (line %d)" msg l
  | Ok v ->
    Alcotest.(check bool) "bit-exact round-trip" true (Mat.equal u v);
    Alcotest.(check string) "re-serialization identical" text (Unitary.to_string v)

(* Codec round-trip: text → binary → text must reproduce the text
   bytes exactly, for both artifact kinds, and a flipped payload byte
   must fail the checksum rather than decode silently. *)
let test_binary_codec_roundtrip () =
  let plan, unitary = sample_artifacts 16 5 in
  let ptext = Plan.to_string plan in
  let pbin = Plan.to_binary_string plan in
  Alcotest.(check bool) "plan binary is a distinct encoding" true (ptext <> pbin);
  (match Plan.of_string pbin with
   | Error (msg, l) -> Alcotest.failf "binary plan parse failed: %s (line %d)" msg l
   | Ok p2 ->
     Alcotest.(check string) "plan text→binary→text bit-identical" ptext
       (Plan.to_string p2));
  let utext = Unitary.to_string unitary in
  let ubin = Unitary.to_binary_string unitary in
  (match Unitary.of_string ubin with
   | Error (msg, l) -> Alcotest.failf "binary unitary parse failed: %s (line %d)" msg l
   | Ok u2 ->
     Alcotest.(check string) "unitary text→binary→text bit-identical" utext
       (Unitary.to_string u2));
  let corrupt = Bytes.of_string ubin in
  let mid = Bytes.length corrupt / 2 in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x40));
  (match Unitary.of_string (Bytes.to_string corrupt) with
   | Ok _ -> Alcotest.fail "checksum must reject a flipped payload byte"
   | Error (msg, _) ->
     Alcotest.(check bool) "rejected via checksum" true
       (String.length msg > 0))

(* ------------------------------------------------------- diskcache *)

let test_store_persists_verbatim () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 11 4 in
  let plan_text = Plan.to_string plan and unitary_text = Unitary.to_string unitary in
  let key = "aaaa000011112222" in
  let t = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Diskcache.store t ~key ~meta:"fidelity=0x1p+0 rotations=6 modes=4" ~plan ~unitary;
  (match Diskcache.find t key with
   | None -> Alcotest.fail "hit expected on the writing process"
   | Some h ->
     Alcotest.(check bool) "stored binary by default" true
       (h.Diskcache.format = Diskcache.Binary);
     Alcotest.(check string) "plan text-identical" plan_text
       (Plan.to_string h.Diskcache.plan);
     Alcotest.(check string) "unitary text-identical" unitary_text
       (Unitary.to_string h.Diskcache.unitary));
  (* Cold start: a second open of the same directory serves artifacts
     identical to what the first process stored. *)
  let t2 = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  (match Diskcache.find t2 key with
   | None -> Alcotest.fail "hit expected after reopen"
   | Some h ->
     Alcotest.(check string) "meta survives restart" "fidelity=0x1p+0 rotations=6 modes=4"
       h.Diskcache.meta;
     Alcotest.(check string) "plan survives restart" plan_text
       (Plan.to_string h.Diskcache.plan);
     Alcotest.(check string) "unitary survives restart" unitary_text
       (Unitary.to_string h.Diskcache.unitary));
  let s = Diskcache.stats t2 in
  Alcotest.(check int) "one entry" 1 s.Diskcache.entries;
  Alcotest.(check int) "one hit" 1 s.Diskcache.hits;
  (* On little-endian hosts the binary read is served from the mmap. *)
  if not Sys.big_endian then
    Alcotest.(check int) "served zero-copy" 1 s.Diskcache.mmap_hits

(* A directory mixing v1 text objects (written by a PR 6 binary), v2
   text objects and v2 binary objects serves all three — the restart
   compatibility story of the format migration. *)
let test_mixed_version_directory () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 15 4 in
  let plan_text = Plan.to_string plan and unitary_text = Unitary.to_string unitary in
  let kbin = "b1b1b1b1b1b1b1b1" and ktext = "a2a2a2a2a2a2a2a2" and kv1 = "c3c3c3c3c3c3c3c3" in
  let t = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Diskcache.store t ~key:kbin ~meta:"m" ~plan ~unitary;
  Diskcache.store ~format:Diskcache.Text t ~key:ktext ~meta:"m" ~plan ~unitary;
  write_file
    (Filename.concat (Filename.concat dir "objects") kv1)
    (render_v1 ~key:kv1 ~meta:"m" ~plan_text ~unitary_text);
  (* Reopen: the v1 file is adopted from disk like any other object. *)
  let t2 = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  let check_hit key expected_format label =
    match Diskcache.find t2 key with
    | None -> Alcotest.failf "%s: expected a hit" label
    | Some h ->
      Alcotest.(check bool) (label ^ ": format") true (h.Diskcache.format = expected_format);
      Alcotest.(check string) (label ^ ": plan") plan_text (Plan.to_string h.Diskcache.plan);
      Alcotest.(check string) (label ^ ": unitary") unitary_text
        (Unitary.to_string h.Diskcache.unitary)
  in
  check_hit kbin Diskcache.Binary "v2 binary";
  check_hit ktext Diskcache.Text "v2 text";
  check_hit kv1 Diskcache.Text "v1 text";
  let s = Diskcache.stats t2 in
  Alcotest.(check int) "all three live" 3 s.Diskcache.entries;
  Alcotest.(check int) "no quarantines" 0 s.Diskcache.quarantined;
  (* Only the binary object is mmap-servable. *)
  if not Sys.big_endian then
    Alcotest.(check int) "one zero-copy hit" 1 s.Diskcache.mmap_hits;
  (* The mixed directory audits clean. *)
  Alcotest.(check int) "audit clean" 0 (List.length (Diskcache.audit dir))

let test_corrupt_entry_quarantined () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 12 4 in
  let key = "feedbead00000001" in
  let t = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Diskcache.store t ~key ~meta:"m" ~plan ~unitary;
  (* Truncate the object behind the store's back. *)
  let path = Filename.concat (Filename.concat dir "objects") key in
  let content = read_file path in
  write_file path (String.sub content 0 (String.length content / 2));
  let t2 = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Alcotest.(check bool) "find does not raise, reports a miss" true
    (Diskcache.find t2 key = None);
  let s = Diskcache.stats t2 in
  Alcotest.(check int) "quarantined" 1 s.Diskcache.quarantined;
  Alcotest.(check int) "no live entries" 0 s.Diskcache.entries;
  Alcotest.(check bool) "object file moved aside" false (Sys.file_exists path);
  Alcotest.(check bool) "quarantine holds the bytes" true
    (Sys.readdir (Filename.concat dir "quarantine") <> [||]);
  (* The key is recompilable: a fresh store heals it. *)
  Diskcache.store t2 ~key ~meta:"m" ~plan ~unitary;
  Alcotest.(check bool) "healed" true (Diskcache.find t2 key <> None)

let test_audit_reports_bh12xx () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 13 4 in
  let t = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa1" ~meta:"m" ~plan ~unitary;
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa2" ~meta:"m" ~plan ~unitary;
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa4" ~meta:"m" ~plan ~unitary;
  (* Corrupt one object, delete another, drop an orphan in, and stamp
     one with a container version from the future. *)
  let obj k = Filename.concat (Filename.concat dir "objects") k in
  write_file (obj "aaaaaaaaaaaaaaa1") "bosec-object 1\ngarbage\n";
  Sys.remove (obj "aaaaaaaaaaaaaaa2");
  write_file (obj "bbbbbbbbbbbbbbb3") "not even framed\n";
  write_file (obj "aaaaaaaaaaaaaaa4") "bosec-object 9\nkey aaaaaaaaaaaaaaa4\n";
  let diags = Lint.run { Lint.empty with Lint.cache_dir = Some dir } in
  let codes = List.map (fun (d : Diag.t) -> d.Diag.code) diags in
  let has c = List.mem c codes in
  Alcotest.(check bool) "BH1202 missing object" true (has "BH1202");
  Alcotest.(check bool) "BH1203 corrupt object" true (has "BH1203");
  Alcotest.(check bool) "BH1204 orphan object" true (has "BH1204");
  (* Size mismatch (corrupted-in-place file with a stale index). *)
  Alcotest.(check bool) "BH1205 size mismatch" true (has "BH1205");
  (* Version mismatch is its own diagnostic, not generic corruption. *)
  Alcotest.(check bool) "BH1206 version mismatch" true (has "BH1206");
  (* The runtime quarantines a wrong-version object like a corrupt one. *)
  let t2 = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Alcotest.(check bool) "wrong version reads as a miss" true
    (Diskcache.find t2 "aaaaaaaaaaaaaaa4" = None);
  Alcotest.(check bool) "wrong version quarantined" true
    ((Diskcache.stats t2).Diskcache.quarantined >= 1);
  (* A malformed index is BH1201 and still not a crash. *)
  write_file (Filename.concat dir "index") "not an index\n";
  let diags = Lint.run { Lint.empty with Lint.cache_dir = Some dir } in
  Alcotest.(check bool) "BH1201 bad index" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "BH1201") diags);
  (* A clean directory audits clean. *)
  let clean = fresh_dir () in
  let t2 = Diskcache.open_ ~dir:clean ~max_bytes:(1 lsl 20) in
  Diskcache.store t2 ~key:"cccccccccccccccc" ~meta:"m" ~plan ~unitary;
  let diags = Lint.run { Lint.empty with Lint.cache_dir = Some clean } in
  Alcotest.(check int) "clean cache: no diagnostics" 0 (List.length diags);
  rm_rf clean

let test_lru_eviction () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 14 4 in
  let size =
    String.length (Plan.to_binary_string plan)
    + String.length (Unitary.to_binary_string unitary)
    + 128 (* container framing slack *)
  in
  (* Room for two entries, not three. *)
  let t = Diskcache.open_ ~dir ~max_bytes:(2 * size) in
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa1" ~meta:"m" ~plan ~unitary;
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa2" ~meta:"m" ~plan ~unitary;
  ignore (Diskcache.find t "aaaaaaaaaaaaaaa1");
  (* 2 is now least-recently-used; adding 3 evicts it. *)
  Diskcache.store t ~key:"aaaaaaaaaaaaaaa3" ~meta:"m" ~plan ~unitary;
  Alcotest.(check bool) "recently-used survives" true (Diskcache.mem t "aaaaaaaaaaaaaaa1");
  Alcotest.(check bool) "LRU evicted" false (Diskcache.mem t "aaaaaaaaaaaaaaa2");
  Alcotest.(check bool) "new entry present" true (Diskcache.mem t "aaaaaaaaaaaaaaa3");
  let s = Diskcache.stats t in
  Alcotest.(check int) "one eviction" 1 s.Diskcache.evictions;
  Alcotest.(check bool) "bound respected" true (s.Diskcache.bytes <= 2 * size)

(* ------------------------------------------------- request engine *)

let get_str path reply =
  match Json.parse reply with
  | Error msg -> Alcotest.failf "reply is not JSON: %s (%s)" msg reply
  | Ok v ->
    let rec go v = function
      | [] -> Json.str v
      | k :: rest -> (match Json.mem k v with Some v -> go v rest | None -> None)
    in
    go v path

let ok_reply reply =
  match Json.parse reply with
  | Ok v -> Json.mem "ok" v = Some (Json.Bool true)
  | Error _ -> false

let compile_req ~id ~seed =
  Printf.sprintf
    {|{"id":%d,"op":"compile","params":{"modes":4,"rows":2,"cols":2,"seed":%d}}|} id seed

let test_protocol_basics () =
  let t = Serve.create () in
  Alcotest.(check bool) "ping" true (ok_reply (Serve.handle_line t {|{"id":1,"op":"ping"}|}));
  (* Errors are structured replies, never exceptions. *)
  Alcotest.(check (option string)) "parse error" (Some "parse")
    (get_str [ "error"; "code" ] (Serve.handle_line t "not json"));
  (* Well-formed, but nested past the parser's depth bound: a parse
     error, never a stack overflow. *)
  let deep_id = String.make 1000 '[' ^ String.make 1000 ']' in
  Alcotest.(check (option string)) "nesting limit" (Some "parse")
    (get_str [ "error"; "code" ]
       (Serve.handle_line t (Printf.sprintf {|{"op":"ping","id":%s}|} deep_id)));
  Alcotest.(check (option string)) "unknown op" (Some "bad-request")
    (get_str [ "error"; "code" ] (Serve.handle_line t {|{"id":2,"op":"frobnicate"}|}));
  Alcotest.(check (option string)) "missing op" (Some "bad-request")
    (get_str [ "error"; "code" ] (Serve.handle_line t {|{"id":3}|}));
  Alcotest.(check (option string)) "bad params" (Some "bad-request")
    (get_str [ "error"; "code" ]
       (Serve.handle_line t {|{"op":"compile","params":{"modes":0}}|}));
  (* Artifact text whose header claims more than the request holds is
     refused at its line before anything is allocated for it. The
     3,000,000 case comes first: a parser that allocates from the
     header dies on it at once (Out_of_memory), not on the 6.4 GB of
     the 20,000 one. *)
  List.iter
    (fun (op, field, text, prefix) ->
       let reply =
         Serve.handle_line t
           (Json.to_string
              (Json.Obj
                 [
                   ("op", Json.Str op); ("params", Json.Obj [ (field, Json.Str text) ]);
                 ]))
       in
       Alcotest.(check (option string)) (text ^ ": code") (Some "bad-request")
         (get_str [ "error"; "code" ] reply);
       let message = Option.value ~default:"" (get_str [ "error"; "message" ] reply) in
       Alcotest.(check bool)
         (text ^ ": " ^ message) true
         (String.starts_with ~prefix message))
    [
      ("compile", "unitary", "unitary 3000000\ne 0x1p+0 0x0p+0\n", "unitary line 1:");
      ("compile", "unitary", "unitary 20000\ne 0x1p+0 0x0p+0\n", "unitary line 1:");
      ("analyze", "plan", "plan 4 2000000000\n", "plan line ");
    ];
  Alcotest.(check bool) "alive after oversized headers" true
    (ok_reply (Serve.handle_line t {|{"id":4,"op":"ping"}|}));
  (* An 8-mode plan whose first rotation names qumode 9 is refused with
     its BH0403 finding, with or without a policy τ: it is neither
     replayed for a policy nor analyzed. *)
  let plan, _ = sample_artifacts 3 8 in
  let first = plan.Plan.elements.(0) in
  plan.Plan.elements.(0) <-
    { first with Plan.rotation = { first.Plan.rotation with Bose_linalg.Givens.m = 9 } };
  List.iter
    (fun tau ->
       let reply =
         Serve.handle_line t
           (Json.to_string
              (Json.Obj
                 [
                   ("op", Json.Str "analyze");
                   ( "params",
                     Json.Obj (("plan", Json.Str (Plan.to_string plan)) :: tau) );
                 ]))
       in
       let label = if tau = [] then "broken plan" else "broken plan, tau" in
       Alcotest.(check (option string)) (label ^ ": code") (Some "bad-request")
         (get_str [ "error"; "code" ] reply);
       let message = Option.value ~default:"" (get_str [ "error"; "message" ] reply) in
       let prefix =
         "structurally broken plan: BH0403 plan step 0: rotation addresses invalid \
          qumode pair (9,"
       in
       Alcotest.(check bool) (label ^ ": " ^ message) true
         (String.starts_with ~prefix message))
    [ []; [ ("tau", Json.Num 0.99) ] ];
  Alcotest.(check bool) "alive after a broken plan" true
    (ok_reply (Serve.handle_line t {|{"id":5,"op":"ping"}|}));
  Alcotest.(check bool) "stats" true
    (ok_reply (Serve.handle_line t {|{"op":"stats"}|}));
  Alcotest.(check bool) "sample" true
    (ok_reply
       (Serve.handle_line t
          {|{"op":"sample","params":{"modes":2,"shots":4,"max_photons":2}}|}));
  Alcotest.(check bool) "not stopping yet" false (Serve.stopping t);
  Alcotest.(check bool) "shutdown" true
    (ok_reply (Serve.handle_line t {|{"op":"shutdown"}|}));
  Alcotest.(check bool) "stopping" true (Serve.stopping t);
  Serve.shutdown t

let get_num path reply =
  match Json.parse reply with
  | Error msg -> Alcotest.failf "reply is not JSON: %s (%s)" msg reply
  | Ok v ->
    let rec go v = function
      | [] -> Json.num v
      | k :: rest -> (match Json.mem k v with Some v -> go v rest | None -> None)
    in
    go v path

let test_analyze_op () =
  with_dir @@ fun dir ->
  let t = Serve.create ~cache_dir:dir () in
  (* Inline plan: clean analysis, report fields present. *)
  let plan, _ = sample_artifacts 5 4 in
  let req =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Num 1.);
           ("op", Json.Str "analyze");
           ("params", Json.Obj [ ("plan", Json.Str (Plan.to_string plan)) ]);
         ])
  in
  let r = Serve.handle_line t req in
  Alcotest.(check bool) "inline plan ok" true (ok_reply r);
  Alcotest.(check (option (float 0.))) "no errors" (Some 0.)
    (get_num [ "result"; "errors" ] r);
  Alcotest.(check bool) "depth reported" true
    (get_num [ "result"; "report"; "depth" ] r <> None);
  Alcotest.(check bool) "fidelity interval reported" true
    (get_num [ "result"; "report"; "fidelity"; "lo" ] r <> None);
  (* Neither plan nor key is a bad request, not an exception. *)
  Alcotest.(check (option string)) "no plan, no key" (Some "bad-request")
    (get_str [ "error"; "code" ] (Serve.handle_line t {|{"id":2,"op":"analyze"}|}));
  Alcotest.(check (option string)) "unknown key" (Some "bad-request")
    (get_str [ "error"; "code" ]
       (Serve.handle_line t {|{"id":3,"op":"analyze","params":{"key":"nope"}}|}));
  (* Compile through the cache, then analyze the stored artifact by
     key with a depth ceiling low enough to trip BH1102. *)
  let rc = Serve.handle_line t (compile_req ~id:4 ~seed:9) in
  let key = match get_str [ "result"; "key" ] rc with
    | Some k -> k
    | None -> Alcotest.fail "compile reply has no key"
  in
  let ra =
    Serve.handle_line t
      (Printf.sprintf
         {|{"id":5,"op":"analyze","params":{"key":"%s","tau":0.999,"max_depth":1}}|}
         key)
  in
  Alcotest.(check bool) "by-key ok" true (ok_reply ra);
  Alcotest.(check bool) "depth ceiling trips errors" true
    (match get_num [ "result"; "errors" ] ra with Some e -> e > 0. | None -> false);
  Serve.shutdown t

let test_restart_disk_hit_bit_identical () =
  with_dir @@ fun dir ->
  (* First server: cold compile, killed. *)
  let t1 = Serve.create ~cache_dir:dir () in
  let r1 = Serve.handle_line t1 (compile_req ~id:1 ~seed:42) in
  Alcotest.(check (option string)) "cold" (Some "none") (get_str [ "result"; "cached" ] r1);
  (* With a disk store attached, the compile is persisted in the v2
     binary encoding and the reply says so. *)
  Alcotest.(check (option string)) "cold stores binary" (Some "binary")
    (get_str [ "result"; "format" ] r1);
  (* The write-through makes a repeat request a disk hit immediately,
     so the reply skips the compile machinery entirely (with a store
     attached there is no pass cache at all). *)
  let r2 = Serve.handle_line t1 (compile_req ~id:2 ~seed:42) in
  Alcotest.(check (option string)) "warm in-process" (Some "disk")
    (get_str [ "result"; "cached" ] r2);
  Alcotest.(check (option string)) "disk hit reports stored format" (Some "binary")
    (get_str [ "result"; "format" ] r2);
  Serve.shutdown t1;
  (* Without a disk store, the warm path is the in-memory pass cache:
     every pass replays its recorded artifact, bit-identically. *)
  let tm = Serve.create () in
  let m1 = Serve.handle_line tm (compile_req ~id:10 ~seed:42) in
  let m2 = Serve.handle_line tm (compile_req ~id:11 ~seed:42) in
  Alcotest.(check (option string)) "no disk: cold" (Some "none")
    (get_str [ "result"; "cached" ] m1);
  Alcotest.(check (option string)) "no disk: nothing persisted" (Some "none")
    (get_str [ "result"; "format" ] m1);
  Alcotest.(check (option string)) "no disk: pass-cache hit" (Some "mem")
    (get_str [ "result"; "cached" ] m2);
  List.iter
    (fun field ->
       Alcotest.(check (option string))
         (field ^ " bit-identical on mem replay")
         (get_str [ "result"; field ] m1)
         (get_str [ "result"; field ] m2))
    [ "plan"; "unitary" ];
  Serve.shutdown tm;
  (* Second server, same cache dir: the recompile must be a disk hit
     returning bit-identical plan and unitary text. *)
  let t2 = Serve.create ~cache_dir:dir () in
  let r3 = Serve.handle_line t2 (compile_req ~id:3 ~seed:42) in
  Alcotest.(check (option string)) "disk hit after restart" (Some "disk")
    (get_str [ "result"; "cached" ] r3);
  Alcotest.(check (option string)) "restart hit served from binary" (Some "binary")
    (get_str [ "result"; "format" ] r3);
  List.iter
    (fun field ->
       Alcotest.(check (option string))
         (field ^ " bit-identical across restart")
         (get_str [ "result"; field ] r1)
         (get_str [ "result"; field ] r3))
    [ "plan"; "unitary"; "key" ];
  Serve.shutdown t2

(* One key, one artifact per batch: two inline compiles of one N=16
   unitary with different seeds (the key excludes the seed) plus a
   seed-form compile, so at jobs 2 the two distinct keys go over the
   pool. Every reply for the key must carry the first compile's
   artifacts, as must a later request for it. *)
let test_batch_one_compile_per_key () =
  let text = Unitary.to_string (Unitary.haar_random (Rng.create 77) 16) in
  let req id seed =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Num (float_of_int id));
           ("op", Json.Str "compile");
           ("params", Json.Obj [ ("unitary", Json.Str text); ("seed", Json.Num (float_of_int seed)) ]);
         ])
  in
  List.iter
    (fun (jobs, store) ->
       with_dir @@ fun dir ->
       let label = Printf.sprintf "jobs %d, %s" jobs (if store then "store" else "no store") in
       let t = Serve.create ~jobs ?cache_dir:(if store then Some dir else None) () in
       let replies = Serve.handle_many t [ req 1 1; compile_req ~id:2 ~seed:5; req 3 2 ] in
       let later = Serve.handle_line t (req 4 1) in
       (match replies with
        | [ first; other; dup ] ->
          Alcotest.(check bool) (label ^ ": other ok") true (ok_reply other);
          List.iter
            (fun (what, r) ->
               List.iter
                 (fun field ->
                    Alcotest.(check (option string))
                      (Printf.sprintf "%s: %s %s" label what field)
                      (get_str [ "result"; field ] first) (get_str [ "result"; field ] r))
                 [ "key"; "plan"; "unitary" ];
               Alcotest.(check (option (float 0.)))
                 (Printf.sprintf "%s: %s fidelity" label what)
                 (get_num [ "result"; "fidelity" ] first) (get_num [ "result"; "fidelity" ] r))
            [ ("duplicate", dup); ("later", later) ];
          Alcotest.(check (option string)) (label ^ ": first compiles") (Some "none")
            (get_str [ "result"; "cached" ] first);
          Alcotest.(check (option string)) (label ^ ": duplicate")
            (Some (if store then "disk" else "mem"))
            (get_str [ "result"; "cached" ] dup)
        | _ -> Alcotest.fail "three replies expected");
       Serve.shutdown t)
    [ (2, false); (2, true); (1, false); (1, true) ]

(* ------------------------------------------------------- targets *)

let target_req ~id ~seed target =
  Printf.sprintf {|{"id":%d,"op":"compile","params":{"modes":8,"seed":%d,"target":"%s"}}|}
    id seed target

let test_target_compile_protocol () =
  with_dir @@ fun dir ->
  (* Disk-backed so the by-key analyze at the end can find the artifact. *)
  let t = Serve.create ~cache_dir:dir () in
  let r = Serve.handle_line t (target_req ~id:1 ~seed:7 "zigzag") in
  Alcotest.(check bool) "targeted compile ok" true (ok_reply r);
  Alcotest.(check (option string)) "target echoed" (Some "zigzag")
    (get_str [ "result"; "target" ] r);
  (* The key namespace discriminates: same job on another target, and
     the same job with no target at all, are three distinct entries. *)
  let r_orca = Serve.handle_line t (target_req ~id:2 ~seed:7 "orca-shallow") in
  Alcotest.(check bool) "orca compile ok" true (ok_reply r_orca);
  Alcotest.(check (option string)) "orca echoed" (Some "orca-shallow")
    (get_str [ "result"; "target" ] r_orca);
  let r_plain =
    Serve.handle_line t {|{"id":3,"op":"compile","params":{"modes":8,"seed":7}}|}
  in
  let key r = get_str [ "result"; "key" ] r in
  Alcotest.(check bool) "zigzag vs orca keys differ" false (key r = key r_orca);
  Alcotest.(check bool) "target vs no-target keys differ" false (key r = key r_plain);
  Alcotest.(check (option string)) "no target, no echo" None
    (get_str [ "result"; "target" ] r_plain);
  (* Unknown targets and conflicting geometry are structured errors. *)
  Alcotest.(check (option string)) "unknown target" (Some "bad-request")
    (get_str [ "error"; "code" ] (Serve.handle_line t (target_req ~id:4 ~seed:7 "nokia")));
  Alcotest.(check (option string)) "target + rows rejected" (Some "bad-request")
    (get_str [ "error"; "code" ]
       (Serve.handle_line t
          {|{"id":5,"op":"compile","params":{"modes":8,"rows":3,"target":"zigzag"}}|}));
  (* analyze accepts a target in place of manual backend knobs, but not
     both. *)
  (match key r with
   | None -> Alcotest.fail "compile reply has no key"
   | Some k ->
     let ra =
       Serve.handle_line t
         (Printf.sprintf {|{"id":6,"op":"analyze","params":{"key":"%s","target":"zigzag"}}|} k)
     in
     Alcotest.(check bool) "analyze with target ok" true (ok_reply ra);
     Alcotest.(check (option string)) "analyze echoes target" (Some "zigzag")
       (get_str [ "result"; "target" ] ra);
     Alcotest.(check (option string)) "analyze target + max_depth rejected"
       (Some "bad-request")
       (get_str [ "error"; "code" ]
          (Serve.handle_line t
             (Printf.sprintf
                {|{"id":7,"op":"analyze","params":{"key":"%s","target":"zigzag","max_depth":4}}|}
                k))));
  Serve.shutdown t

let test_target_restart_disk_hit () =
  with_dir @@ fun dir ->
  (* Cold targeted compile, write-through to disk, server killed. *)
  let t1 = Serve.create ~cache_dir:dir () in
  let r1 = Serve.handle_line t1 (target_req ~id:1 ~seed:42 "timebin-loop") in
  Alcotest.(check (option string)) "cold" (Some "none") (get_str [ "result"; "cached" ] r1);
  Alcotest.(check (option string)) "target in cold reply" (Some "timebin-loop")
    (get_str [ "result"; "target" ] r1);
  Serve.shutdown t1;
  (* Fresh server on the same directory: the disk hit must carry the
     target provenance back out of the stored meta, bit-identically. *)
  let t2 = Serve.create ~cache_dir:dir () in
  let r2 = Serve.handle_line t2 (target_req ~id:2 ~seed:42 "timebin-loop") in
  Alcotest.(check (option string)) "disk hit after restart" (Some "disk")
    (get_str [ "result"; "cached" ] r2);
  Alcotest.(check (option string)) "target survives the meta round-trip"
    (Some "timebin-loop")
    (get_str [ "result"; "target" ] r2);
  List.iter
    (fun field ->
       Alcotest.(check (option string))
         (field ^ " bit-identical across restart")
         (get_str [ "result"; field ] r1)
         (get_str [ "result"; field ] r2))
    [ "plan"; "unitary"; "key"; "fidelity"; "rotations" ];
  (* A target-less request with the same geometry stays a cold miss:
     the legacy key namespace is untouched. *)
  let r3 = Serve.handle_line t2 {|{"id":3,"op":"compile","params":{"modes":8,"seed":42}}|} in
  Alcotest.(check (option string)) "legacy namespace unaffected" (Some "none")
    (get_str [ "result"; "cached" ] r3);
  Serve.shutdown t2

(* ------------------------------------------------------- socket *)

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then Alcotest.fail "server did not come up";
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* [line] and its newline in [k]-byte writes. *)
let send_pieces fd line k =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (min k (Bytes.length b - off)))
  in
  go 0

let recv_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Alcotest.fail "server closed the connection mid-reply"
    | _ ->
      if Bytes.get one 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
  in
  go ()

let test_socket_concurrent_clients () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "sock" in
  Sys.mkdir dir 0o755;
  (* The server owns its state entirely inside its domain. *)
  let server = Domain.spawn (fun () ->
      let t = Serve.create () in
      Serve.serve_socket t ~path)
  in
  let a = connect_with_retry path in
  let b = connect_with_retry path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ()))
    (fun () ->
       (* Interleave: both clients write before either reads. Replies
          must land on the right connection with the right id. *)
       send_line a (compile_req ~id:101 ~seed:7);
       send_line b {|{"id":202,"op":"ping"}|};
       let ra = recv_line a in
       let rb = recv_line b in
       Alcotest.(check bool) "client a ok" true (ok_reply ra);
       Alcotest.(check bool) "client b ok" true (ok_reply rb);
       let id reply =
         match Json.parse reply with
         | Ok v -> Json.mem "id" v
         | Error _ -> None
       in
       Alcotest.(check bool) "a got its own id" true (id ra = Some (Json.Num 101.));
       Alcotest.(check bool) "b got its own id" true (id rb = Some (Json.Num 202.));
       Alcotest.(check (option string)) "a is a compile reply" (Some "none")
         (get_str [ "result"; "cached" ] ra);
       (* Second request on a live connection still works. *)
       send_line b (compile_req ~id:203 ~seed:7);
       Alcotest.(check bool) "b compile ok" true (ok_reply (recv_line b));
       (* A client that sends a compile and hangs up before its reply:
          the failed write drops that client, not the server. *)
       let inline id =
         Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int id));
                ("op", Json.Str "compile");
                ( "params",
                  Json.Obj
                    [
                      ( "unitary",
                        Json.Str (Unitary.to_string (Unitary.haar_random (Rng.create 32) 32)) );
                    ] );
              ])
       in
       let c = connect_with_retry path in
       send_line c (inline 301);
       Unix.close c;
       send_line b {|{"id":204,"op":"ping"}|};
       Alcotest.(check bool) "pong after a hang-up" true (ok_reply (recv_line b));
       (* Framing: one line in 1-byte and in 1000-byte writes, and two
          lines in one write. *)
       send_pieces a (inline 105) 1;
       let r1 = recv_line a in
       send_pieces a (inline 106) 1000;
       let r1000 = recv_line a in
       Alcotest.(check bool) "1-byte pieces ok" true (ok_reply r1);
       Alcotest.(check bool) "1000-byte pieces ok" true (ok_reply r1000);
       Alcotest.(check (option string)) "same plan either way"
         (get_str [ "result"; "plan" ] r1) (get_str [ "result"; "plan" ] r1000);
       send_pieces a ({|{"id":107,"op":"ping"}|} ^ "\n" ^ {|{"id":108,"op":"ping"}|}) 4096;
       Alcotest.(check bool) "first of two" true (id (recv_line a) = Some (Json.Num 107.));
       Alcotest.(check bool) "second of two" true (id (recv_line a) = Some (Json.Num 108.));
       send_line a {|{"id":104,"op":"shutdown"}|};
       Alcotest.(check bool) "shutdown acked" true (ok_reply (recv_line a)));
  Domain.join server;
  Alcotest.(check bool) "socket file removed on exit" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "store",
        [
          Alcotest.test_case "unitary string round-trip" `Quick
            test_unitary_string_roundtrip;
          Alcotest.test_case "binary codec round-trip and checksum" `Quick
            test_binary_codec_roundtrip;
          Alcotest.test_case "persists verbatim across reopen" `Quick
            test_store_persists_verbatim;
          Alcotest.test_case "mixed v1/v2 text/binary directory" `Quick
            test_mixed_version_directory;
          Alcotest.test_case "corrupt entry quarantined, not raised" `Quick
            test_corrupt_entry_quarantined;
          Alcotest.test_case "audit reports BH12xx" `Quick test_audit_reports_bh12xx;
          Alcotest.test_case "LRU eviction under the size bound" `Quick
            test_lru_eviction;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "ping/stats/sample/errors/shutdown" `Quick
            test_protocol_basics;
          Alcotest.test_case "analyze op: inline, by key, errors" `Quick
            test_analyze_op;
          Alcotest.test_case "restart disk hit is bit-identical" `Quick
            test_restart_disk_hit_bit_identical;
          Alcotest.test_case "one compile per key in a batch" `Quick
            test_batch_one_compile_per_key;
        ] );
      ( "target",
        [
          Alcotest.test_case "compile/analyze with target" `Quick
            test_target_compile_protocol;
          Alcotest.test_case "targeted disk hit across restart" `Quick
            test_target_restart_disk_hit;
        ] );
      ( "socket",
        [
          Alcotest.test_case "two concurrent clients" `Quick
            test_socket_concurrent_clients;
        ] );
    ]
