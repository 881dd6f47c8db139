(** The repository's one JSON codec, stdlib only: the [bosec serve]
    wire protocol (docs/SERVING.md), [Obs] telemetry reports and bench
    telemetry, [bosec check/analyze --json], and the bench regression
    gate all parse and print through it. Numbers are [float] (ints
    round-trip exactly up to 2^53); strings are validated
    UTF-8-agnostic byte sequences with the standard escapes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed;
    trailing garbage is an error). [Error] carries a message with a
    0-based byte offset. Arrays and objects nest at most 512 levels
    deep; deeper input is an [Error] at the offending byte, so hostile
    input cannot exhaust the stack. *)

val to_string : t -> string
(** One line, no trailing newline. Integral numbers print without a
    decimal point; other floats as shortest decimal that reparses
    exactly; non-finite floats as [null]. *)

val mem : string -> t -> t option
(** [mem k (Obj ...)] is the first binding of [k]; [None] on any other
    constructor. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** [int] accepts only integral [Num]s. *)

val bool_ : t -> bool option
