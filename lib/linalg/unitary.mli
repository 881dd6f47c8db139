(** Unitary matrix generation and factorization. *)

val qr : Mat.t -> Mat.t * Mat.t
(** [qr a] = (q, r) with [a = q·r], [q] unitary and [r] upper triangular,
    via Householder reflections. [a] must be square. *)

val haar_random : Bose_util.Rng.t -> int -> Mat.t
(** Haar-distributed random N×N unitary: QR of a Ginibre matrix with the
    phase fix of Mezzadri (2007) making the distribution exactly Haar. *)

val random_orthogonal : Bose_util.Rng.t -> int -> Mat.t
(** Haar-random real orthogonal matrix (all entries real). *)

val random_diagonal_phases : Bose_util.Rng.t -> int -> Mat.t
(** Diagonal unitary with uniform random phases. *)

val save : out_channel -> Mat.t -> unit
(** Persist a square matrix as a line-oriented text format (header
    [unitary <n>], then one [e <re> <im>] line per entry, row-major,
    hex floats — bit-exact round-trip).
    @raise Invalid_argument on non-square input. *)

val to_string : Mat.t -> string
(** The exact bytes {!save} writes — the value format of the serve
    daemon's disk-backed artifact store.
    @raise Invalid_argument on non-square input. *)

val load_result : in_channel -> (Mat.t, string * int) result
(** Inverse of {!save}: {!of_string} over the rest of the channel.
    [Error (message, line)] carries the 1-based line the parse failed
    on, so callers ([bosec check], the lint file loaders) can surface
    malformed input as a structured diagnostic instead of an
    exception. The text layout is strict: one space before each field,
    nothing else on a line (see {!Bose_util.Artifact_text}). A header
    whose sizes cannot fit in the rest of the input is an [Error] at
    line 1, never an allocation. *)

val of_string : string -> (Mat.t, string * int) result
(** {!load_result} over an in-memory string, dispatching on the leading
    bytes: strings opening with the binary magic ["BHBU"] parse as the
    v2 binary format (docs/SERVING.md), anything else as the text
    format — so callers load old and new artifacts through one entry
    point. Binary parse errors report line [0]. *)

val to_binary_string : Mat.t -> string
(** The v2 binary artifact encoding: magic ["BHBU"], format version,
    dimension, the two raw little-endian float planes, and a trailing
    FNV-1a 64 checksum. Bit-exact round-trip through {!of_string}, and
    ~an order of magnitude faster to load than the text format (no
    hex-float parsing — the disk cache's preferred encoding).
    @raise Invalid_argument on non-square input. *)

val of_bigbytes : Mat.bigbytes -> pos:int -> len:int -> (Mat.t, string * int) result
(** Decode a v2 binary artifact in place from [len] bytes at [pos] of a
    mapped buffer — checksum validated and planes blitted straight out
    of the mapping, no intermediate string. Same error convention as
    {!of_string}. @raise Invalid_argument when the range is out of
    bounds of the buffer itself. *)

val load : in_channel -> Mat.t
(** {!load_result} shim. @raise Failure on malformed input. *)
