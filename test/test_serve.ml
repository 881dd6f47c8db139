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

(* Object files written by older binaries: a v1 container (text
   artifacts, no format line) and a v2 container with text sections.
   The store must keep reading both. *)
let render_v1 ~key ~meta ~plan_text ~unitary_text =
  Printf.sprintf "bosec-object 1\nkey %s\nmeta %s\nplan %d\n%sunitary %d\n%send\n" key
    meta (String.length plan_text) plan_text (String.length unitary_text) unitary_text

let render_v2_text ~key ~meta ~plan_text ~unitary_text =
  Printf.sprintf "bosec-object 2\nkey %s\nmeta %s\nformat text\nplan %d\n%sunitary %d\n%send\n"
    key meta (String.length plan_text) plan_text (String.length unitary_text) unitary_text

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
  let objects = Filename.concat dir "objects" in
  write_file (Filename.concat objects ktext)
    (render_v2_text ~key:ktext ~meta:"m" ~plan_text ~unitary_text);
  write_file (Filename.concat objects kv1)
    (render_v1 ~key:kv1 ~meta:"m" ~plan_text ~unitary_text);
  (* Reopen: the text files are adopted from disk like any other object. *)
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

(* A writer killed between writing a temp file and renaming it leaves
   the temp file behind, here a 3000-byte prefix of a real object in
   objects/ and a partial index next to the index. The audit does not
   count them as objects, and reopening removes them. *)
let test_leftover_temp_files () =
  with_dir @@ fun dir ->
  let plan, unitary = sample_artifacts 17 12 in
  let key = "dddd000011112222" in
  let t = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Diskcache.store t ~key ~meta:"m" ~plan ~unitary;
  let objects = Filename.concat dir "objects" in
  let content = read_file (Filename.concat objects key) in
  Alcotest.(check bool) "object larger than the prefix" true (String.length content > 3000);
  let part_object = Filename.concat objects ".part5f3a2b.tmp" in
  let part_index = Filename.concat dir ".part0c1d2e.tmp" in
  write_file part_object (String.sub content 0 3000);
  write_file part_index "bosec-cache-index 1\ne dddd";
  let issues () = List.map (Format.asprintf "%a" Diskcache.pp_issue) (Diskcache.audit dir) in
  Alcotest.(check (list string)) "temp files are not objects" [] (issues ());
  let t2 = Diskcache.open_ ~dir ~max_bytes:(1 lsl 20) in
  Alcotest.(check bool) "object temp removed" false (Sys.file_exists part_object);
  Alcotest.(check bool) "index temp removed" false (Sys.file_exists part_index);
  Alcotest.(check (list string)) "audit clean after reopen" [] (issues ());
  Alcotest.(check int) "only the object counts" (String.length content)
    (Diskcache.stats t2).Diskcache.bytes;
  Alcotest.(check bool) "entry still hits" true (Diskcache.find t2 key <> None)

(* The bosec binary of the same build tree (test/dune depends on it). *)
let bosec_exe =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "bosec.exe"

(* Crash consistency: a `bosec serve --cache-dir` fed N=64 compiles is
   killed with SIGKILL, after fixed delays and as soon as a store's temp
   file appears, until a kill lands between a write and its rename (a
   loaded machine can let the writer finish the rename first). After
   each kill a reopened store audits clean and every indexed key hits. *)
let test_killed_writer () =
  with_dir @@ fun dir ->
  let objects = Filename.concat dir "objects" in
  let temp_left () =
    Array.exists
      (String.starts_with ~prefix:".part")
      (try Sys.readdir objects with Sys_error _ -> [||])
  in
  let round = ref 0 in
  let kill_and_reopen kill_when =
    incr round;
    let requests =
      String.concat ""
        (List.init 120 (fun k ->
             Printf.sprintf
               {|{"id":%d,"op":"compile","params":{"modes":64,"rows":8,"cols":8,"config":"baseline","seed":%d}}|}
               k ((1000 * !round) + k)
             ^ "\n"))
    in
    let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Unix.create_process bosec_exe [| bosec_exe; "serve"; "--cache-dir"; dir |] stdin_r null
        null
    in
    Unix.close stdin_r;
    Unix.close null;
    ignore (Unix.write_substring stdin_w requests 0 (String.length requests));
    let label =
      match kill_when with
      | `After delay ->
        Unix.sleepf delay;
        Printf.sprintf "kill after %.0f ms" (1000. *. delay)
      | `In_store ->
        let deadline = Unix.gettimeofday () +. 10. in
        while not (temp_left ()) do
          if Unix.gettimeofday () > deadline then Alcotest.fail "no store began"
        done;
        Printf.sprintf "kill in store, round %d" !round
    in
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Unix.close stdin_w;
    let left = temp_left () in
    let t = Diskcache.open_ ~dir ~max_bytes:(64 lsl 20) in
    Alcotest.(check (list string)) (label ^ ": audit clean") []
      (List.map (Format.asprintf "%a" Diskcache.pp_issue) (Diskcache.audit dir));
    let keys = Sys.readdir objects in
    Alcotest.(check int) (label ^ ": every object indexed") (Array.length keys)
      (Diskcache.stats t).Diskcache.entries;
    Array.iter
      (fun key ->
         Alcotest.(check bool) (label ^ ": " ^ key ^ " hits") true
           (Diskcache.find t key <> None))
      keys;
    left
  in
  List.iter (fun d -> ignore (kill_and_reopen (`After d))) [ 0.03; 0.09; 0.15; 0.25 ];
  let rec in_store tries = tries > 0 && (kill_and_reopen `In_store || in_store (tries - 1)) in
  Alcotest.(check bool) "a kill left a temp file behind" true (in_store 10)

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
     attached there is no memory tier at all). *)
  let r2 = Serve.handle_line t1 (compile_req ~id:2 ~seed:42) in
  Alcotest.(check (option string)) "warm in-process" (Some "disk")
    (get_str [ "result"; "cached" ] r2);
  Alcotest.(check (option string)) "disk hit reports stored format" (Some "binary")
    (get_str [ "result"; "format" ] r2);
  Serve.shutdown t1;
  (* Without a disk store, the warm path is the memory tier: the
     key's stored answer, bit-identically. *)
  let tm = Serve.create () in
  let m1 = Serve.handle_line tm (compile_req ~id:10 ~seed:42) in
  let m2 = Serve.handle_line tm (compile_req ~id:11 ~seed:42) in
  Alcotest.(check (option string)) "no disk: cold" (Some "none")
    (get_str [ "result"; "cached" ] m1);
  Alcotest.(check (option string)) "no disk: nothing persisted" (Some "none")
    (get_str [ "result"; "format" ] m1);
  Alcotest.(check (option string)) "no disk: memory hit" (Some "mem")
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

(* A stored object whose meta line does not parse is recompiled once:
   the entry is quarantined, so the recompile's write-through stores a
   fresh object and the next repeat is a disk hit again, carrying the
   first compile's artifacts. *)
let test_bad_meta_repaired () =
  with_dir @@ fun dir ->
  let t1 = Serve.create ~cache_dir:dir () in
  let r1 = Serve.handle_line t1 (compile_req ~id:1 ~seed:42) in
  Serve.shutdown t1;
  let key = Option.get (get_str [ "result"; "key" ] r1) in
  let path = Filename.concat (Filename.concat dir "objects") key in
  let content = read_file path in
  (* Line 3, after the magic and key lines. *)
  let start = String.index_from content (String.index content '\n' + 1) '\n' + 1 in
  let stop = String.index_from content start '\n' in
  Alcotest.(check string) "meta line found" "meta " (String.sub content start 5);
  write_file path
    (String.sub content 0 start ^ "meta garbage"
     ^ String.sub content stop (String.length content - stop));
  let t2 = Serve.create ~cache_dir:dir () in
  let r2 = Serve.handle_line t2 (compile_req ~id:2 ~seed:42) in
  Alcotest.(check (option string)) "bad meta recompiles" (Some "none")
    (get_str [ "result"; "cached" ] r2);
  let r3 = Serve.handle_line t2 (compile_req ~id:3 ~seed:42) in
  Alcotest.(check (option string)) "repaired entry hits" (Some "disk")
    (get_str [ "result"; "cached" ] r3);
  List.iter
    (fun field ->
       Alcotest.(check (option string)) (field ^ " unchanged by the repair")
         (get_str [ "result"; field ] r1)
         (get_str [ "result"; field ] r3))
    [ "plan"; "unitary"; "key" ];
  Alcotest.(check (option (float 0.))) "one quarantine" (Some 1.)
    (get_num [ "result"; "disk_cache"; "quarantined" ]
       (Serve.handle_line t2 {|{"op":"stats"}|}));
  Serve.shutdown t2

(* One key, one artifact per batch: two inline compiles of one N=16
   unitary with different seeds (the key excludes the seed) plus a
   seed-form compile, so at jobs 2 the two distinct keys go over the
   pool. Every reply for the key must carry the first compile's
   artifacts, as must later requests for it — under the first seed and
   under a new one — from the store or the memory tier. *)
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
       let reseeded = Serve.handle_line t (req 5 3) in
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
            [ ("duplicate", dup); ("later", later); ("reseeded", reseeded) ];
          Alcotest.(check (option string)) (label ^ ": first compiles") (Some "none")
            (get_str [ "result"; "cached" ] first);
          List.iter
            (fun (what, r) ->
               Alcotest.(check (option string)) (label ^ ": " ^ what ^ " cached")
                 (Some (if store then "disk" else "mem"))
                 (get_str [ "result"; "cached" ] r))
            [ ("duplicate", dup); ("later", later); ("reseeded", reseeded) ]
        | _ -> Alcotest.fail "three replies expected");
       Serve.shutdown t)
    [ (2, false); (2, true); (1, false); (1, true) ]

(* The memory tier keeps whole answers under a byte bound: with 1 MiB
   and four distinct N=64 compiles (~0.38 MB of plan and unitary text
   each) it holds two. The oldest key is gone and recompiles; the
   newest answers from memory with its first bytes, even under another
   seed (map polish draws from the seed's stream). *)
let test_memory_tier_byte_bound () =
  let texts =
    Array.init 4 (fun k -> Unitary.to_string (Unitary.haar_random (Rng.create (600 + k)) 64))
  in
  let req id k seed =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Num (float_of_int id));
           ("op", Json.Str "compile");
           ( "params",
             Json.Obj
               [
                 ("unitary", Json.Str texts.(k));
                 ("rows", Json.Num 8.);
                 ("cols", Json.Num 8.);
                 ("config", Json.Str "full-opt");
                 ("effort", Json.Str "fast");
                 ("seed", Json.Num (float_of_int seed));
               ] );
         ])
  in
  let t = Serve.create ~max_cache_mb:1 () in
  let first = Array.init 4 (fun k -> Serve.handle_line t (req k k 1)) in
  let text_bytes r =
    List.fold_left
      (fun acc f -> acc + String.length (Option.get (get_str [ "result"; f ] r)))
      0 [ "plan"; "unitary" ]
  in
  let smallest = Array.fold_left (fun acc r -> min acc (text_bytes r)) max_int first in
  Alcotest.(check bool) "each answer is over a quarter MiB" true (4 * smallest > 1 lsl 20);
  let mem_cache field =
    match get_num [ "result"; "mem_cache"; field ] (Serve.handle_line t {|{"op":"stats"}|}) with
    | Some x -> int_of_float x
    | None -> Alcotest.fail ("stats has no mem_cache." ^ field)
  in
  let entries = mem_cache "entries" in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries fit in 1 MiB" entries)
    true
    (entries >= 1 && entries * smallest <= 1 lsl 20);
  let newest = Serve.handle_line t (req 10 3 2) in
  Alcotest.(check (option string)) "newest from memory" (Some "mem")
    (get_str [ "result"; "cached" ] newest);
  List.iter
    (fun field ->
       Alcotest.(check (option string)) ("newest " ^ field)
         (get_str [ "result"; field ] first.(3)) (get_str [ "result"; field ] newest))
    [ "key"; "plan"; "unitary" ];
  Alcotest.(check (option (float 0.))) "newest fidelity"
    (get_num [ "result"; "fidelity" ] first.(3)) (get_num [ "result"; "fidelity" ] newest);
  let oldest = Serve.handle_line t (req 11 0 1) in
  Alcotest.(check (option string)) "oldest evicted, recompiled" (Some "none")
    (get_str [ "result"; "cached" ] oldest);
  Alcotest.(check (option string)) "recompile under its seed: same plan"
    (get_str [ "result"; "plan" ] first.(0)) (get_str [ "result"; "plan" ] oldest);
  (* Counted per request: one hit, five misses. *)
  Alcotest.(check int) "hits" 1 (mem_cache "hits");
  Alcotest.(check int) "misses" 5 (mem_cache "misses");
  Serve.shutdown t;
  (* The reseeded reply above is a real check: compiled cold under seed
     2, the newest key's fidelity differs. *)
  let fresh = Serve.create () in
  Alcotest.(check bool) "seed 2 compiles another policy" false
    (get_num [ "result"; "fidelity" ] (Serve.handle_line fresh (req 12 3 2))
     = get_num [ "result"; "fidelity" ] first.(3));
  Serve.shutdown fresh

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
          Alcotest.test_case "leftover temp files removed on open" `Quick
            test_leftover_temp_files;
          Alcotest.test_case "writer killed mid-store, reopen clean" `Quick
            test_killed_writer;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "ping/stats/sample/errors/shutdown" `Quick
            test_protocol_basics;
          Alcotest.test_case "analyze op: inline, by key, errors" `Quick
            test_analyze_op;
          Alcotest.test_case "restart disk hit is bit-identical" `Quick
            test_restart_disk_hit_bit_identical;
          Alcotest.test_case "bad meta line quarantined and repaired" `Quick
            test_bad_meta_repaired;
          Alcotest.test_case "one compile per key in a batch" `Quick
            test_batch_one_compile_per_key;
          Alcotest.test_case "memory tier bounded in bytes" `Quick
            test_memory_tier_byte_bound;
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
