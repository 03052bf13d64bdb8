(* A single lint diagnostic, and its two renderings (human / JSON).

   Findings carry 1-based lines and 0-based columns, matching compiler
   diagnostics so editors can jump to them. A finding's JSON shape is
   flat scalars only, the same discipline as [Obs.Report]'s exports,
   printed by [Obs.Json]. *)

type t = { file : string; line : int; col : int; rule : string; msg : string }

let compare a b =
  compare (a.file, a.line, a.col, a.rule, a.msg) (b.file, b.line, b.col, b.rule, b.msg)

let to_human f = Printf.sprintf "%s:%d:%d: %s: %s" f.file f.line f.col f.rule f.msg

let to_json f =
  Obs.Json.(
    Obj
      [ ("file", String f.file); ("line", Int f.line); ("col", Int f.col);
        ("rule", String f.rule); ("msg", String f.msg) ])

let list_to_json fs =
  Obs.Json.(
    to_string
      (Obj
         [ ("version", Int 1); ("count", Int (List.length fs));
           ("findings", List (List.map to_json fs)) ]))
