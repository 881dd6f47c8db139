(* A real `bosec serve --socket ... --cache-dir ... --jobs 1` process and
   the client side of its line protocol. Every process and directory
   made here is registered for cleanup, which runs on every exit path
   (normal exit, a failed check, an exception, SIGINT/SIGTERM). *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* ---- cleanup ----------------------------------------------------- *)

let runs_base = ".bench_runs"

let live_pids : int list ref = ref []
let scratch_dirs : string list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let cleanup () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       reap pid)
    !live_pids;
  live_pids := [];
  List.iter (fun d -> try remove_tree d with Unix.Unix_error _ | Sys_error _ -> ()) !scratch_dirs;
  scratch_dirs := [];
  (* The parent goes too once no other run is using it. *)
  try Unix.rmdir runs_base with Unix.Unix_error _ -> ()

let install_cleanup () =
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

(* A fresh per-run directory inside the working tree. Paths stay
   relative: Unix socket paths are limited to ~108 bytes, and the server
   runs in our working directory. *)
let run_dir () =
  (try Unix.mkdir runs_base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat runs_base (string_of_int (Unix.getpid ())) in
  (try remove_tree dir with Unix.Unix_error _ -> ());
  Unix.mkdir dir 0o755;
  scratch_dirs := dir :: !scratch_dirs;
  dir

(* ---- the server process ------------------------------------------ *)

type t = { pid : int; sock : string; mutable running : bool }

exception Died of string

let spawn ~bosec ~sock ~cache ~log =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process bosec
      [| bosec; "serve"; "--socket"; sock; "--cache-dir"; cache; "--jobs"; "1" |]
      null out out
  in
  Unix.close null;
  Unix.close out;
  live_pids := pid :: !live_pids;
  { pid; sock; running = true }

let exited t =
  t.running
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.running <- false;
    live_pids := List.filter (( <> ) t.pid) !live_pids;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    t.running <- false;
    true

let alive t = t.running && not (exited t)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let wait_exit t ~timeout_s =
  let deadline = now_ms () +. (timeout_s *. 1000.) in
  while alive t && now_ms () < deadline do
    Unix.sleepf 0.005
  done;
  if t.running then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t.pid;
    t.running <- false;
    live_pids := List.filter (( <> ) t.pid) !live_pids
  end

(* Every server's captured stdout/stderr in [dir], as (log name, line). *)
let logs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.concat_map (fun f ->
      In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
      |> List.map (fun l -> (Filename.chop_suffix f ".log", l)))

(* ---- connections ------------------------------------------------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect t ~timeout_s =
  let deadline = now_ms () +. (timeout_s *. 1000.) in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.sock) with
    | () -> { fd; pending = Buffer.create 65536; chunk = Bytes.create (1 lsl 20) }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if not (alive t) then raise (Died "server exited before accepting connections");
      if now_ms () > deadline then raise (Died "server did not open its socket in time");
      Unix.sleepf 0.0001;
      go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let write s =
    let len = String.length s in
    let rec go off =
      if off < len then
        match Unix.write_substring c.fd s off (len - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  in
  try
    write line;
    write "\n"
  with Unix.Unix_error (e, _, _) -> raise (Died ("write: " ^ Unix.error_message e))

let rec newline b i n =
  if i >= n then None else if Bytes.unsafe_get b i = '\n' then Some i else newline b (i + 1) n

(* One read; [Some line] once a newline completes the reply. *)
let feed c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise (Died "server closed the connection")
  | n ->
    (match newline c.chunk 0 n with
     | Some k ->
       Buffer.add_subbytes c.pending c.chunk 0 k;
       let line = Buffer.contents c.pending in
       Buffer.clear c.pending;
       Buffer.add_subbytes c.pending c.chunk (k + 1) (n - k - 1);
       Some line
     | None ->
       Buffer.add_subbytes c.pending c.chunk 0 n;
       None)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | exception Unix.Unix_error (e, _, _) -> raise (Died ("read: " ^ Unix.error_message e))

let recv c ~timeout_s =
  let deadline = now_ms () +. (timeout_s *. 1000.) in
  let rec go () =
    let left = (deadline -. now_ms ()) /. 1000. in
    if left <= 0. then raise (Died "no reply in time");
    match Unix.select [ c.fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (match feed c with Some line -> line | None -> go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let roundtrip c line ~timeout_s =
  send c line;
  recv c ~timeout_s

(* Spawn a server and time it from spawn to the first successful ping. *)
let start ~bosec ~sock ~cache ~log =
  let t0 = now_ms () in
  let t = spawn ~bosec ~sock ~cache ~log in
  let c = connect t ~timeout_s:60. in
  let reply = roundtrip c {|{"id":0,"op":"ping"}|} ~timeout_s:60. in
  let setup_s = (now_ms () -. t0) /. 1000. in
  if Check.find_sub reply {|"pong":true|} ~from:0 = None then
    raise (Died ("bad ping reply: " ^ reply));
  (t, c, setup_s)

(* Graceful stop through the protocol; killed if it does not exit. *)
let stop t c =
  (try ignore (roundtrip c {|{"id":0,"op":"shutdown"}|} ~timeout_s:10.) with Died _ -> ());
  close_conn c;
  wait_exit t ~timeout_s:10.
