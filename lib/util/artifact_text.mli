(** The line-oriented text format of Plan and Unitary artifacts
    (docs/SERVING.md): a line is a tag followed by fields, each field
    preceded by exactly one space, lines ended by ['\n'] (the last may
    lack it). Floats are hex floats, byte for byte what [Printf "%h"]
    prints, so a round trip is bit-exact; ints are decimal.

    The printer appends to a caller-sized [Buffer.t]. The reader is a
    cursor over the whole input that fails with the 1-based line it
    stopped on. It accepts a strict subset of what the [Scanf] formats
    ["%d"] and ["%h"] accept, and returns the same values on it. *)

val add_int : Buffer.t -> int -> unit
(** A space, then the int in decimal. *)

val add_float : Buffer.t -> float -> unit
(** A space, then the float as [Printf "%h"] prints it. *)

val max_float_bytes : int
(** Longest output of {!add_float}, the space included. *)

exception Malformed of string * int
(** A message and the 1-based line number. *)

type reader

val reader : string -> reader

val line : reader -> string -> unit
(** Start the next line. The string is the message of any failure on
    this line. @raise Malformed ["truncated input"] when the input is
    exhausted. *)

val tag : reader -> string -> unit
(** Match a literal at the cursor (the line's tag). *)

val int : reader -> int
(** One field: an optional ['-'] and decimal digits, within the range
    of [int]. *)

val float : reader -> float
(** One field: an optional ['-'], then [nan], [infinity] or [0x]
    hex-digits, an optional [.] hex-digits and an optional [p] exponent
    with optional sign. *)

val eol : reader -> unit
(** End of the line: a ['\n'] or the end of the input. *)

val fail : reader -> string -> 'a
(** @raise Malformed with the message at the current line. *)

val reserve : reader -> lines:int -> min_bytes:int -> unit
(** Check that [lines] more lines of at least [min_bytes] bytes each
    (newline included) fit in the rest of the input, before anything
    is allocated for them. @raise Malformed ["header exceeds the
    input"] otherwise. *)
