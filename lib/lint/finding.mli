(** A single rc-lint diagnostic, and its two renderings (human /
    JSON). Findings carry 1-based lines and 0-based columns, matching
    compiler diagnostics so editors can jump to them. *)

type t = { file : string; line : int; col : int; rule : string; msg : string }

val compare : t -> t -> int
(** Lexicographic on (file, line, col, rule, msg) — the stable order
    the engine sorts findings into. *)

val to_human : t -> string
(** [file:line:col: RULE: message], the compiler-diagnostic shape. *)

val to_json : t -> Obs.Json.t
(** One finding as a flat JSON object (scalars only). *)

val list_to_json : t list -> string
(** The versioned envelope [{"version":1,"count":N,"findings":[...]}]
    the CI gate and external tooling consume. *)
