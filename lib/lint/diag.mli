(** Structured compiler diagnostics.

    Every invariant the Bosehedral pipeline promises (the §IV–§VI pass
    contracts documented in [Compiler]) is statically checkable on the
    compact N×N unitary and the artifacts derived from it; a [Diag.t]
    is one violation (or observation) of such an invariant, carrying a
    stable machine-readable code, a severity, and a location inside the
    offending artifact. The full code catalogue — ID, severity,
    invariant, paper section — lives in docs/DIAGNOSTICS.md.

    Diagnostics render two ways: {!pp} for terminal output
    ([error[BH0401] plan step 17: ...]) and {!to_json} for tooling
    ([bosec check --json]). Codes are append-only: a code is never
    reused for a different invariant. *)

type severity = Error | Warning | Info

type location =
  | Whole  (** The artifact as a whole. *)
  | Entry of int * int  (** Matrix entry (row, col), 0-indexed. *)
  | Step of int  (** Plan step index, elimination order. *)
  | Gate of int  (** Circuit gate index, application order. *)
  | Mode of int  (** Qumode label. *)
  | Edge of int * int  (** Pattern / coupling edge between two labels. *)
  | Line of int  (** 1-based text line, for parse diagnostics. *)

type t = {
  code : string;  (** Stable id, e.g. ["BH0401"] (docs/DIAGNOSTICS.md). *)
  severity : severity;
  location : location;
  message : string;
  hint : string option;  (** Optional remediation advice. *)
}

val error : ?hint:string -> ?loc:location -> code:string -> string -> t
val warning : ?hint:string -> ?loc:location -> code:string -> string -> t
val info : ?hint:string -> ?loc:location -> code:string -> string -> t
(** Constructors; [loc] defaults to {!Whole}. *)

val is_error : t -> bool

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"] — also the JSON encoding. *)

val promote_warnings : t list -> t list
(** [--Werror]: every [Warning] becomes an [Error]; [Info] survives. *)

val count : severity -> t list -> int

val summary : t list -> string
(** ["2 errors, 1 warning, 0 info"] — the line [bosec check] prints
    last and the runtest smoke row greps. Counts are always plural-
    normalized English ("1 error", "2 errors"). *)

val pp_location : Format.formatter -> location -> unit

val pp : Format.formatter -> t -> unit
(** One line: [severity[CODE] location: message] plus an indented
    [hint:] line when present. *)

val pp_list : Format.formatter -> t list -> unit
(** Every diagnostic, one per line, followed by the {!summary} line. *)

val to_json : t list -> Bose_util.Json.t
(** [{"version": 1, "diagnostics": [{"code": ..., "severity": ...,
    "location": {"kind": ..., ...}, "message": ..., "hint": ...}, ...],
    "errors": n, "warnings": n, "info": n}]. *)
