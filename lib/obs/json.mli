(** The one JSON codec (DESIGN.md §7, §11): every JSON document the
    system writes is built as a {!t} and printed by {!to_string};
    every one it reads is parsed by {!of_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** kept apart from [Float], so integer fields stay exact *)
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in emission order *)

val escape : string -> string
(** The body of a JSON string literal: escapes double quote,
    backslash, newline, tab and the other control bytes (as
    [\u00XX]); every other byte is copied unchanged. *)

val to_string : t -> string
(** Compact, no whitespace. Floats print with [%.6f], so a value reads
    back exactly when it has at most six decimals. *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parser; never raises. Integral literals in [int]
    range become [Int], all other numbers [Float]. [\u] escapes decode
    to UTF-8. Errors carry the byte offset. *)

(** {2 Decoding}

    Decoders are plain functions [t -> 'a] composed from the helpers
    below. A helper that meets the wrong shape aborts the decode; only
    {!decode} turns that into a result, so run every decoder under
    it. *)

val decode : (t -> 'a) -> t -> ('a, string) result
(** [Error] names the failing path, e.g.
    ["cells[3].ops: expected an integer"]. *)

val field : string -> (t -> 'a) -> t -> 'a
(** [field name dec obj] decodes member [name] of [obj]. *)

val to_int : t -> int
(** Only [Int]: a fraction, exponent or out-of-range literal fails. *)

val to_float : t -> float
(** [Float] or [Int]. *)

val to_string_ : t -> string
val to_list : (t -> 'a) -> t -> 'a list
