module Plan = Bose_decomp.Plan
module Mat = Bose_linalg.Mat
module Unitary = Bose_linalg.Unitary

(* Container versions. v1 objects (the PR 6 format) carry text artifacts
   and no format line; v2 adds the format line and allows the binary
   artifact encodings. The store writes v2 and reads both — a directory
   written by an old binary keeps serving hits after an upgrade. *)
let object_magic_prefix = "bosec-object "
let object_magic_v2 = "bosec-object 2"
let index_magic = "bosec-cache-index 1"
let ( // ) = Filename.concat

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

type entry = { mutable last_use : int; size : int }

type t = {
  dir : string;
  max_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable quarantined : int;
  mutable mmap_hits : int;
}

type stats = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;
  evictions : int;
  quarantined : int;
  max_bytes : int;
  mmap_hits : int;
}

type hit = { meta : string; format : format; plan : Plan.t; unitary : Mat.t }

type issue =
  | Bad_index of { line : int; msg : string }
  | Missing_object of { key : string }
  | Corrupt_object of { file : string; msg : string }
  | Orphan_object of { file : string }
  | Size_mismatch of { key : string; index_bytes : int; disk_bytes : int }
  | Version_mismatch of { file : string; version : int }

let objects_dir dir = dir // "objects"
let quarantine_dir dir = dir // "quarantine"
let index_file dir = dir // "index"

let validate_key key =
  key <> ""
  && String.for_all (function 'a' .. 'z' | '0' .. '9' -> true | _ -> false) key

(* ------------------------------------------------------------------ *)
(* Filesystem helpers: stdlib-only, every write atomic.                *)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Sys.mkdir p 0o755 with Sys_error _ -> ())
    end
  in
  go path;
  if not (Sys.file_exists path && Sys.is_directory path) then
    invalid_arg ("Diskcache: cannot create directory " ^ path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write-then-rename: the temp file lives in the destination directory
   so the rename never crosses a filesystem boundary. A writer killed
   between the two steps leaves the temp file behind; [open_] removes
   it and [audit] skips it ([is_temp]). *)
let temp_prefix = ".part"
let temp_suffix = ".tmp"

let is_temp name =
  String.starts_with ~prefix:temp_prefix name && String.ends_with ~suffix:temp_suffix name

let write_atomic ~path content =
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) temp_prefix temp_suffix in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

(* Map a whole file read-only as a byte Bigarray. The fd is closed
   immediately — the mapping outlives it. Any failure (empty file,
   filesystem without mmap) degrades to None and the caller falls back
   to an ordinary read. *)
let map_file path : Mat.bigbytes option =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
         try
           let g = Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |] in
           Some (Bigarray.array1_of_genarray g)
         with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> None)

(* ------------------------------------------------------------------ *)
(* Object format: self-describing, length-framed, then semantically
   validated by actually parsing both artifacts.

     bosec-object 2
     key <key>
     meta <one free-form line>
     format <text|binary>
     plan <bytes>
     <plan artifact, exactly that many bytes>
     unitary <bytes>
     <unitary artifact>
     end

   v1 objects differ only in the magic line and the absence of the
   format line (their sections are always text). The section payloads
   are whatever Plan/Unitary serialize — text or the v2 binary
   encodings, both of which their [of_string] dispatches on — so the
   container never inspects float bytes itself. *)

let render_object ~key ~meta ~plan ~unitary =
  let buf =
    Buffer.create (80 + String.length meta + String.length plan + String.length unitary)
  in
  Buffer.add_string buf object_magic_v2;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("key " ^ key ^ "\n");
  Buffer.add_string buf ("meta " ^ meta ^ "\n");
  Buffer.add_string buf ("format " ^ format_to_string Binary ^ "\n");
  Buffer.add_string buf (Printf.sprintf "plan %d\n" (String.length plan));
  Buffer.add_string buf plan;
  Buffer.add_string buf (Printf.sprintf "unitary %d\n" (String.length unitary));
  Buffer.add_string buf unitary;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* An abstract byte source lets one framing parser serve both read
   paths: plain strings and mmapped buffers. *)
module Src = struct
  type t = {
    len : int;
    sub : pos:int -> len:int -> string;
    index_nl : int -> int option;  (** first '\n' at or after a position *)
  }

  let of_string s =
    {
      len = String.length s;
      sub = (fun ~pos ~len -> String.sub s pos len);
      index_nl = (fun p -> String.index_from_opt s p '\n');
    }

  let of_bigbytes (ba : Mat.bigbytes) =
    let dim = Bigarray.Array1.dim ba in
    let rec find_nl i =
      if i >= dim then None
      else if Char.equal (Bigarray.Array1.unsafe_get ba i) '\n' then Some i
      else find_nl (i + 1)
    in
    {
      len = dim;
      sub = (fun ~pos ~len -> Mat.bigbytes_sub_string ba ~pos ~len);
      index_nl = (fun p -> if p < 0 then None else find_nl p);
    }
end

type parse_error = Corrupt of string | Wrong_version of int

exception Bad of parse_error

let bad msg = raise (Bad (Corrupt msg))

(* Framing only: splits the container into header fields and raw
   section ranges without decoding the artifacts. *)
type framing = {
  f_meta : string;
  f_declared : format option;  (* None on v1 objects *)
  f_plan_pos : int;
  f_plan_len : int;
  f_unitary_pos : int;
  f_unitary_len : int;
}

let parse_framing ~key (src : Src.t) =
  let pos = ref 0 in
  let line () =
    if !pos >= src.len then bad "truncated object";
    let stop = match src.index_nl !pos with Some i -> i | None -> bad "truncated object" in
    let l = src.sub ~pos:!pos ~len:(stop - !pos) in
    pos := stop + 1;
    l
  in
  let section name =
    let l = line () in
    let n =
      match Scanf.sscanf l "%s %d%!" (fun tag n -> (tag, n)) with
      | tag, n when tag = name -> n
      | _ -> bad ("bad " ^ name ^ " header")
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        bad ("bad " ^ name ^ " header")
    in
    if n < 0 || !pos + n > src.len then bad "section length exceeds file";
    let p = !pos in
    pos := !pos + n;
    (p, n)
  in
  let magic = line () in
  let version =
    let plen = String.length object_magic_prefix in
    if String.length magic > plen && String.sub magic 0 plen = object_magic_prefix then
      match int_of_string_opt (String.sub magic plen (String.length magic - plen)) with
      | Some v -> v
      | None -> bad "bad magic line"
    else bad "bad magic line"
  in
  if version <> 1 && version <> 2 then raise (Bad (Wrong_version version));
  (match line () with
   | l when l = "key " ^ key -> ()
   | l when String.length l >= 4 && String.sub l 0 4 = "key " ->
     bad "key line does not match file name"
   | _ -> bad "bad key line");
  let f_meta =
    let l = line () in
    if String.length l >= 5 && String.sub l 0 5 = "meta " then
      String.sub l 5 (String.length l - 5)
    else bad "bad meta line"
  in
  let f_declared =
    if version = 1 then None
    else
      match line () with
      | "format text" -> Some Text
      | "format binary" -> Some Binary
      | _ -> bad "bad format line"
  in
  let f_plan_pos, f_plan_len = section "plan" in
  let f_unitary_pos, f_unitary_len = section "unitary" in
  if line () <> "end" then bad "missing end marker";
  if !pos <> src.len then bad "trailing bytes after end marker";
  { f_meta; f_declared; f_plan_pos; f_plan_len; f_unitary_pos; f_unitary_len }

(* The format a section actually uses is what its own magic says; the
   v2 format line must agree (a disagreement means a corrupted or
   hand-edited object). *)
let section_format (src : Src.t) ~pos ~len =
  if len >= 4 && (src.sub ~pos ~len:4 = "BHBP" || src.sub ~pos ~len:4 = "BHBU") then Binary
  else Text

let check_declared f fmt =
  match f.f_declared with
  | Some d when d <> fmt -> bad "format line disagrees with section contents"
  | Some _ | None -> ()

let decode_sections ~via_map (src : Src.t) (ba : Mat.bigbytes option) f =
  let fmt = section_format src ~pos:f.f_plan_pos ~len:f.f_plan_len in
  let ufmt = section_format src ~pos:f.f_unitary_pos ~len:f.f_unitary_len in
  if fmt <> ufmt then bad "plan and unitary sections disagree on format";
  check_declared f fmt;
  let p =
    let r =
      match (fmt, ba) with
      | Binary, Some ba when via_map -> Plan.of_bigbytes ba ~pos:f.f_plan_pos ~len:f.f_plan_len
      | _ -> Plan.of_string (src.sub ~pos:f.f_plan_pos ~len:f.f_plan_len)
    in
    match r with
    | Ok p -> p
    | Error (msg, l) -> bad (Printf.sprintf "plan section line %d: %s" l msg)
  in
  let u =
    let r =
      match (fmt, ba) with
      | Binary, Some ba when via_map ->
        Unitary.of_bigbytes ba ~pos:f.f_unitary_pos ~len:f.f_unitary_len
      | _ -> Unitary.of_string (src.sub ~pos:f.f_unitary_pos ~len:f.f_unitary_len)
    in
    match r with
    | Ok u -> u
    | Error (msg, l) -> bad (Printf.sprintf "unitary section line %d: %s" l msg)
  in
  if Mat.rows u <> p.Plan.modes then bad "plan and unitary disagree on the mode count";
  { meta = f.f_meta; format = fmt; plan = p; unitary = u }

let parse_object ~key content =
  let src = Src.of_string content in
  match decode_sections ~via_map:false src None (parse_framing ~key src) with
  | h -> Ok h
  | exception Bad e -> Error e

(* The zero-copy read path: binary unitary planes blit straight out of
   the mapping. Big-endian hosts skip it — the string path byte-swaps
   correctly and mmap would save nothing. *)
let parse_object_map ~key (ba : Mat.bigbytes) =
  let src = Src.of_bigbytes ba in
  match decode_sections ~via_map:true src (Some ba) (parse_framing ~key src) with
  | h -> Ok h
  | exception Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Index: a performance hint rebuilt from the object files whenever it
   is missing or stale. One line per entry after the magic:
     e <key> <bytes> <tick>                                            *)

let render_index t =
  let buf = Buffer.create (32 + (Hashtbl.length t.tbl * 40)) in
  Buffer.add_string buf index_magic;
  Buffer.add_char buf '\n';
  let rows =
    Hashtbl.fold (fun key e acc -> (key, e.size, e.last_use) :: acc) t.tbl []
  in
  List.iter
    (fun (key, size, tick) ->
       Buffer.add_string buf (Printf.sprintf "e %s %d %d\n" key size tick))
    (List.sort compare rows);
  Buffer.contents buf

let write_index t = write_atomic ~path:(index_file t.dir) (render_index t)

(* Parse an index file body. Returns the entry list plus structural
   issues; the runtime ignores bad lines (the object files are the
   source of truth), the audit reports them.                           *)
let parse_index content =
  let issues = ref [] in
  let entries = ref [] in
  (match String.split_on_char '\n' content with
   | [] -> issues := [ Bad_index { line = 0; msg = "empty index" } ]
   | magic :: rest ->
     if magic <> index_magic then
       issues := [ Bad_index { line = 1; msg = "bad index magic line" } ]
     else
       List.iteri
         (fun i l ->
            if l <> "" then
              match Scanf.sscanf l "e %s %d %d%!" (fun k s t -> (k, s, t)) with
              | (key, size, tick) when validate_key key && size >= 0 ->
                entries := (key, size, tick) :: !entries
              | _ ->
                issues := Bad_index { line = i + 2; msg = "bad entry line" } :: !issues
              | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                issues := Bad_index { line = i + 2; msg = "bad entry line" } :: !issues)
         rest);
  (List.rev !entries, List.rev !issues)

(* ------------------------------------------------------------------ *)

let quarantine t key =
  let src = objects_dir t.dir // key in
  let rec dest k =
    let d = quarantine_dir t.dir // Printf.sprintf "%s.%d" key k in
    if Sys.file_exists d then dest (k + 1) else d
  in
  (try Sys.rename src (dest 0) with Sys_error _ -> ());
  (match Hashtbl.find_opt t.tbl key with
   | Some e ->
     t.bytes <- t.bytes - e.size;
     Hashtbl.remove t.tbl key
   | None -> ());
  t.quarantined <- t.quarantined + 1;
  write_index t

let evict_lru t ~keep =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
         if key = keep then acc
         else
           match acc with
           | Some (_, best) when best <= e.last_use -> acc
           | _ -> Some (key, e.last_use))
      t.tbl None
  in
  match victim with
  | None -> false
  | Some (key, _) ->
    (match Hashtbl.find_opt t.tbl key with
     | Some e -> t.bytes <- t.bytes - e.size
     | None -> ());
    Hashtbl.remove t.tbl key;
    (try Sys.remove (objects_dir t.dir // key) with Sys_error _ -> ());
    t.evictions <- t.evictions + 1;
    true

let enforce_bound (t : t) ~keep =
  let continue_ = ref true in
  while t.bytes > t.max_bytes && !continue_ do
    continue_ := evict_lru t ~keep
  done

let readdir d = try Sys.readdir d with Sys_error _ -> [||]

let open_ ~dir ~max_bytes =
  if max_bytes < 1 then invalid_arg "Diskcache.open_: max_bytes must be positive";
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    invalid_arg ("Diskcache.open_: not a directory: " ^ dir);
  mkdir_p (objects_dir dir);
  mkdir_p (quarantine_dir dir);
  (* Temp files of writes that never reached their rename. *)
  let remove_temp d f = if is_temp f then try Sys.remove (d // f) with Sys_error _ -> () in
  Array.iter (remove_temp dir) (readdir dir);
  let t =
    {
      dir;
      max_bytes;
      tbl = Hashtbl.create 64;
      bytes = 0;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      quarantined = 0;
      mmap_hits = 0;
    }
  in
  (* Reconcile: indexed entries must exist on disk (at their current
     disk size); object files the index missed are adopted as oldest. *)
  (match if Sys.file_exists (index_file dir) then Some (read_file (index_file dir)) else None with
   | None -> ()
   | Some content ->
     let entries, _issues = parse_index content in
     List.iter
       (fun (key, _size, tick) ->
          let path = objects_dir dir // key in
          if Sys.file_exists path && not (Hashtbl.mem t.tbl key) then begin
            let size = file_size path in
            Hashtbl.replace t.tbl key { last_use = tick; size };
            t.bytes <- t.bytes + size;
            if tick > t.tick then t.tick <- tick
          end)
       entries);
  Array.iter
    (fun file ->
       remove_temp (objects_dir dir) file;
       if validate_key file && not (Hashtbl.mem t.tbl file) then begin
         let size = file_size (objects_dir dir // file) in
         Hashtbl.replace t.tbl file { last_use = 0; size };
         t.bytes <- t.bytes + size
       end)
    (readdir (objects_dir dir));
  enforce_bound t ~keep:"";
  write_index t;
  t

let dir t = t.dir
let mem t key = Hashtbl.mem t.tbl key

let record_hit t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick;
  t.hits <- t.hits + 1

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e ->
    let path = objects_dir t.dir // key in
    let mapped =
      (* The mmap fast path. Little-endian hosts only: the plane blit
         reinterprets raw LE bytes. Any mapping or parse hiccup falls
         through to the ordinary read, which owns quarantining. *)
      if Sys.big_endian then None
      else
        match map_file path with
        | None -> None
        | Some ba -> (match parse_object_map ~key ba with Ok h -> Some h | Error _ -> None)
    in
    (match mapped with
     | Some h ->
       record_hit t e;
       if h.format = Binary then t.mmap_hits <- t.mmap_hits + 1;
       Some h
     | None ->
       (match (try Some (read_file path) with Sys_error _ -> None) with
        | None ->
          (* Deleted behind our back: drop the entry, count a miss. *)
          t.bytes <- t.bytes - e.size;
          Hashtbl.remove t.tbl key;
          t.misses <- t.misses + 1;
          write_index t;
          None
        | Some content ->
          (match parse_object ~key content with
           | Ok h ->
             record_hit t e;
             Some h
           | Error _ ->
             (* Corrupted or wrong-version entry: quarantine rather than
                crash, and let the caller recompile — the next store
                heals the key. *)
             quarantine t key;
             t.misses <- t.misses + 1;
             None)))

let store t ~key ~meta ~plan ~unitary =
  if not (validate_key key) then invalid_arg ("Diskcache.store: invalid key " ^ key);
  if String.contains meta '\n' then
    invalid_arg "Diskcache.store: meta must be a single line";
  if Mat.rows unitary <> plan.Plan.modes then
    invalid_arg "Diskcache.store: plan and unitary disagree on the mode count";
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.tick <- t.tick + 1;
    e.last_use <- t.tick
  | None ->
    let plan = Plan.to_binary_string plan in
    let unitary = Unitary.to_binary_string unitary in
    let content = render_object ~key ~meta ~plan ~unitary in
    write_atomic ~path:(objects_dir t.dir // key) content;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key { last_use = t.tick; size = String.length content };
    t.bytes <- t.bytes + String.length content;
    enforce_bound t ~keep:key;
    write_index t

let stats (t : t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    entries = Hashtbl.length t.tbl;
    bytes = t.bytes;
    evictions = t.evictions;
    quarantined = t.quarantined;
    max_bytes = t.max_bytes;
    mmap_hits = t.mmap_hits;
  }

(* ------------------------------------------------------------------ *)
(* Read-only audit, shared with lib/lint's diskcache pass (BH12xx).    *)

let audit dir =
  if not (Sys.file_exists dir) then
    [ Bad_index { line = 0; msg = "cache directory does not exist: " ^ dir } ]
  else if not (Sys.is_directory dir) then
    [ Bad_index { line = 0; msg = "not a directory: " ^ dir } ]
  else begin
    let indexed, index_issues =
      if Sys.file_exists (index_file dir) then parse_index (read_file (index_file dir))
      else ([], [])
    in
    let issues = ref (List.rev index_issues) in
    let index_keys = Hashtbl.create 32 in
    List.iter
      (fun (key, size, _) ->
         Hashtbl.replace index_keys key ();
         let path = objects_dir dir // key in
         if not (Sys.file_exists path) then
           issues := Missing_object { key } :: !issues
         else begin
           let disk_bytes = file_size path in
           if disk_bytes <> size then
             issues := Size_mismatch { key; index_bytes = size; disk_bytes } :: !issues
         end)
      indexed;
    Array.iter
      (fun file ->
         let path = objects_dir dir // file in
         if not (is_temp file) then begin
           if not (Hashtbl.mem index_keys file) then
             issues := Orphan_object { file = path } :: !issues;
           match parse_object ~key:file (read_file path) with
           | Ok _ -> ()
           | Error (Wrong_version version) ->
             issues := Version_mismatch { file = path; version } :: !issues
           | Error (Corrupt msg) -> issues := Corrupt_object { file = path; msg } :: !issues
           | exception Sys_error msg ->
             issues := Corrupt_object { file = path; msg } :: !issues
         end)
      (readdir (objects_dir dir));
    List.rev !issues
  end

let pp_issue fmt = function
  | Bad_index { line; msg } ->
    if line > 0 then Format.fprintf fmt "index line %d: %s" line msg
    else Format.fprintf fmt "index: %s" msg
  | Missing_object { key } -> Format.fprintf fmt "entry %s: object file missing" key
  | Corrupt_object { file; msg } -> Format.fprintf fmt "%s: corrupt (%s)" file msg
  | Orphan_object { file } -> Format.fprintf fmt "%s: not referenced by the index" file
  | Size_mismatch { key; index_bytes; disk_bytes } ->
    Format.fprintf fmt "entry %s: index records %d bytes, file has %d" key index_bytes
      disk_bytes
  | Version_mismatch { file; version } ->
    Format.fprintf fmt
      "%s: object format version %d (this binary reads versions 1 and 2)" file version
