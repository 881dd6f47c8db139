(** A content-fingerprint-keyed, disk-backed artifact store — the
    persistence layer behind [bosec serve], so compile answers survive
    restarts. Keys are FNV-1a content fingerprints rendered as 16 hex
    characters ([Pass.Fingerprint.to_hex] of [Serve.compile_key]);
    values are typed artifacts — a [Plan.t] and its unitary —
    serialized through the stable codecs, so a disk hit returns exactly
    what the original compile produced.

    {2 Artifact formats}

    New objects are written in the v2 {e binary} artifact encoding
    ([Plan.to_binary_string] / [Unitary.to_binary_string]: magic,
    format version, raw little-endian planes, FNV-1a checksum) — no
    hex-float parsing on load, and on little-endian hosts {!find}
    serves reads {e zero-copy}: the object file is mapped with
    [Unix.map_file] and the unitary's planes are blitted straight out
    of the mapping ([stats.mmap_hits] counts these). Text objects —
    v2 text sections and v1 containers written by older binaries —
    load through the same dispatching readers and keep serving hits;
    the migration story is in docs/SERVING.md.

    {2 On-disk layout} (documented for operators in docs/SERVING.md)

    {v
    <dir>/index              LRU index, one line per entry
    <dir>/objects/<key>      artifact files (self-describing, framed)
    <dir>/quarantine/        corrupted entries moved aside, never read
    v}

    Every write is atomic (write to a temp file [.part*.tmp] in the
    same directory, then rename), so a crashed or killed writer never
    leaves a half-written object where a reader can trip on it; {!open_}
    removes the temp files such a writer leaves. The index is a
    performance hint, not a source of truth: {!open_} reconciles it
    against the object files (missing files are dropped, orphan files
    adopted), and deleting any file — or the whole directory — is
    always safe; the worst case is a cold cache.

    A corrupted object (bad framing, parse failure, checksum or key
    mismatch) — or one whose container version this binary does not
    read — is {e quarantined} on first read: moved to [quarantine/],
    counted, reported as a miss, never raised. [lib/lint]'s [diskcache]
    pass ({!audit}, BH12xx) reports the same findings as diagnostics
    without modifying the directory.

    The store is single-domain mutable state: callers serialize access
    (the serve daemon performs all store traffic on the owner domain).
    One process owns a directory: another process opening it would
    remove the first one's in-flight temp files. *)

type t

(** Artifact encoding inside an object's sections. *)
type format =
  | Text  (** Hex-float line format (v1 objects, older v2 objects). *)
  | Binary  (** v2 binary encoding — what {!store} writes;
                mmap-servable, ~an order of magnitude faster to load. *)

val format_to_string : format -> string
(** ["text"] / ["binary"] — the wire spelling used by the object's
    [format] line and the serve protocol's reply field. *)

type stats = {
  hits : int;  (** Reads that returned a validated artifact. *)
  misses : int;  (** Reads that found nothing usable (includes quarantines). *)
  entries : int;
  bytes : int;  (** Total object-file bytes currently indexed. *)
  evictions : int;  (** Entries removed by the size bound. *)
  quarantined : int;  (** Corrupted objects moved to [quarantine/]. *)
  max_bytes : int;
  mmap_hits : int;
      (** Hits served zero-copy from an mmapped binary object. *)
}

val open_ : dir:string -> max_bytes:int -> t
(** Open (creating directories as needed), remove leftover temp files
    and reconcile the index against the object files. [max_bytes]
    bounds the total object-file bytes; least-recently-used entries are
    evicted past it.
    @raise Invalid_argument when [max_bytes < 1] or [dir] exists and is
    not a directory. *)

val dir : t -> string

val validate_key : string -> bool
(** Keys must be non-empty [[a-z0-9]] strings (fingerprint hex) — they
    become file names verbatim. *)

val mem : t -> string -> bool
(** Index membership only; no I/O, no statistics. *)

(** A validated read: the stored metadata line, the encoding the object
    carried, and the decoded artifacts. Re-serializing with the text
    codecs reproduces the original compile's bytes exactly (hex-float
    and binary round-trips are both bit-exact). *)
type hit = {
  meta : string;
  format : format;
  plan : Bose_decomp.Plan.t;
  unitary : Bose_linalg.Mat.t;
}

val find : t -> string -> hit option
(** [find t key] reads, validates and returns the stored artifacts. On
    little-endian hosts binary objects are served from an mmap when
    possible (falling back to an ordinary read). A corrupted or
    wrong-version object is quarantined and reported as a miss. *)

val store :
  t ->
  key:string ->
  meta:string ->
  plan:Bose_decomp.Plan.t ->
  unitary:Bose_linalg.Mat.t ->
  unit
(** Record an artifact as a v2 binary object (atomic
    write-then-rename), update the index and evict past the size
    bound. Storing an existing key only refreshes its
    recency — the store is content-addressed, same key means same
    content. [meta] is one free-form line (no newline).
    @raise Invalid_argument on an invalid key, a [meta] containing a
    newline, or artifacts disagreeing on the mode count. *)

val stats : t -> stats
(** Lifetime totals since {!open_}. *)

(** {2 Read-only integrity audit} — the decision procedure behind the
    lint engine's [diskcache] pass (BH1201–BH1206). *)

type issue =
  | Bad_index of { line : int; msg : string }
      (** Index file malformed ([line] is 1-based; 0 = whole file /
          directory problem). *)
  | Missing_object of { key : string }
      (** Index entry whose object file does not exist. *)
  | Corrupt_object of { file : string; msg : string }
      (** Object file fails framing, checksum or artifact-parse
          validation. *)
  | Orphan_object of { file : string }
      (** Object file not referenced by the index. *)
  | Size_mismatch of { key : string; index_bytes : int; disk_bytes : int }
      (** Indexed size disagrees with the file on disk. *)
  | Version_mismatch of { file : string; version : int }
      (** Object declares a container format version this binary does
          not read (not 1 or 2) — likely written by a newer binary;
          distinct from corruption so operators know an upgrade, not a
          disk fault, is the fix. *)

val audit : string -> issue list
(** Audit a cache directory without opening or modifying it. A missing
    directory is one [Bad_index]; a missing index with no objects is a
    fresh cache and clean. [quarantine/] contents are expected-bad and
    not audited, and leftover temp files are not objects. *)

val pp_issue : Format.formatter -> issue -> unit
