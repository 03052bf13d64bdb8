(** rc-lint: static atomic-discipline and layout checks for the
    reclamation stack (DESIGN.md §9).

    The analyzer parses each [.ml] file with the ppxlib parser and runs
    a set of purely syntactic rules over the AST: R1, R4 and R6. Rules
    are deliberately approximate — they encode the repo's protocol
    conventions (the [Sched.Atomic] discipline of §8, telemetry hooks,
    padded counters) rather than a points-to analysis. None
    of them checks a pointer's life cycle: all three of Meyer–Wolff's
    obligations for manual SMR are typed by [Acquire_retire]'s rank-2
    scopes — a guard is released when its scope exits, a node is read
    only through a live guard, and only an unlink witness retires it
    (DESIGN.md §3). The rules that approximated them are retired, as
    are R5 (telemetry: the shared reclaimer stamps every retire, and
    the accounting-identity tests check the counts) and R7 (knob
    capture: knobs are create-time constants, so a copy cannot go
    stale), and the gaps they leave in the numbering are not reused.

    Suppression: [\[@@@rc_lint.allow "R4"\]] as a floating structure
    attribute silences a rule from that point to the end of the file;
    [\[@rc_lint.allow "R4"\]] attached to an expression, value binding,
    or record label silences exactly that subtree/site. The payload
    ["all"] silences every rule. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Rule catalogue                                                      *)
(* ------------------------------------------------------------------ *)

let rules : (string * string) list =
  [
    ( "R1",
      "raw-atomic: every atomic in lib/{sticky,core,smr,acquire_retire} and \
       lib/util/padded.ml goes through Sched.Atomic" );
    ( "R4",
      "unsafe-escape: Obj.magic/Obj.repr/Obj.obj forbidden outside \
       tools/rc_lint/allow_unsafe.txt" );
    ( "R6",
      "padding: per-domain hot counter arrays in lib/obs and lib/smr must go through \
       Padded (or annotate the deliberate layout)" );
  ]

(* ------------------------------------------------------------------ *)
(* File roles                                                          *)
(* ------------------------------------------------------------------ *)

(* Which rules apply to a file is decided from its path. Fixture files
   under test/lint_fixtures mimic the real layout (ds/, smr/, obs/
   subdirectories), so the same role logic covers both trees. *)
type roles = {
  protocol : bool;  (* a protocol directory or padded.ml: R1 *)
  obs_smr : bool;  (* under obs/ or smr/: R6 *)
  unsafe_allowed : bool;  (* listed in allow_unsafe.txt: R4 off *)
}

let path_segments p =
  String.split_on_char '/' p |> List.filter (fun s -> s <> "" && s <> ".")

(* Allowlist entries are workspace-relative ("lib/smr/ident.ml"); a
   file matches when its trailing path segments equal the entry's, so
   the linter works from any invocation root. *)
let suffix_matches ~entry path =
  let e = List.rev (path_segments entry) and p = List.rev (path_segments path) in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ -> false
  in
  e <> [] && is_prefix e p

let roles_of ~allow_unsafe path =
  let segs = path_segments path in
  let base = match List.rev segs with b :: _ -> b | [] -> path in
  let dirs = match List.rev segs with _ :: d -> d | [] -> [] in
  let has d = List.mem d dirs in
  {
    protocol =
      List.exists has [ "sticky"; "core"; "smr"; "acquire_retire" ]
      || (has "util" && String.equal base "padded.ml");
    obs_smr = has "obs" || has "smr";
    unsafe_allowed = List.exists (fun entry -> suffix_matches ~entry path) allow_unsafe;
  }

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let allow_payload (a : attribute) =
  if not (String.equal a.attr_name.txt "rc_lint.allow") then None
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some s
    | _ -> Some "all" (* a malformed payload suppresses everything rather than nothing *)

let allows rule attrs =
  List.exists
    (fun a ->
      match allow_payload a with
      | Some s -> String.equal s rule || String.equal (String.lowercase_ascii s) "all"
      | None -> false)
    attrs

(* ------------------------------------------------------------------ *)
(* Longident and subtree helpers                                       *)
(* ------------------------------------------------------------------ *)

(* [flatten_exn] raises only on a functor application ([Lapply]), as
   in [Set.Make(Int).t]: no rule matches such a path. *)
let flat lid = try Longident.flatten_exn lid with Invalid_argument _ -> []

(* ------------------------------------------------------------------ *)
(* Finding accumulation                                                *)
(* ------------------------------------------------------------------ *)

type ctx = { file : string; mutable findings : Finding.t list }

let report ctx rule (loc : Location.t) msg =
  ctx.findings <-
    {
      Finding.file = ctx.file;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      rule;
      msg;
    }
    :: ctx.findings

(* ------------------------------------------------------------------ *)
(* R1: raw-atomic                                                      *)
(* ------------------------------------------------------------------ *)

let raw_atomic lid =
  match flat lid with "Atomic" :: _ | "Stdlib" :: "Atomic" :: _ -> true | _ -> false

let run_r1 ctx st =
  let flag txt loc =
    report ctx "R1" loc
      (Printf.sprintf
         "raw `%s` bypasses Sched.Atomic; the §8 schedule explorer and the atomics \
          profiles cannot see this step — use Sched.Atomic"
         (String.concat "." (flat txt)))
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! module_expr me =
        match me.pmod_desc with
        | Pmod_ident { txt; loc } when raw_atomic txt -> flag txt loc
        | _ -> super#module_expr me

      method! value_binding vb =
        if allows "R1" vb.pvb_attributes then () else super#value_binding vb

      method! expression e =
        if allows "R1" e.pexp_attributes then ()
        else
          match e.pexp_desc with
          | Pexp_ident { txt; loc } when raw_atomic txt -> flag txt loc
          | _ -> super#expression e

      method! core_type t =
        if allows "R1" t.ptyp_attributes then ()
        else
          match t.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _) when raw_atomic txt -> flag txt loc
          | _ -> super#core_type t
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R4: unsafe-escape                                                   *)
(* ------------------------------------------------------------------ *)

let obj_escape lid =
  match flat lid with
  | [ "Obj"; m ] | [ "Stdlib"; "Obj"; m ] -> List.mem m [ "magic"; "repr"; "obj" ]
  | _ -> false

let run_r4 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        if allows "R4" vb.pvb_attributes then () else super#value_binding vb

      method! expression e =
        if allows "R4" e.pexp_attributes then ()
        else begin
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } when obj_escape txt ->
              report ctx "R4" loc
                (Printf.sprintf
                   "unsafe `%s` escape hatch — add this file to \
                    tools/rc_lint/allow_unsafe.txt if the use is deliberate"
                   (String.concat "." (flat txt)))
          | _ -> ());
          super#expression e
        end
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R6: padding                                                         *)
(* ------------------------------------------------------------------ *)

let is_int_type t =
  match t.ptyp_desc with Ptyp_constr ({ txt = Lident "int"; _ }, []) -> true | _ -> false

let is_atomic_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, [ _ ]) -> (
      match flat txt with [ "Atomic"; "t" ] | [ "Stdlib"; "Atomic"; "t" ] -> true | _ -> false)
  | _ -> false

let run_r6 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! label_declaration ld =
        let hot_array =
          match ld.pld_type.ptyp_desc with
          | Ptyp_constr ({ txt = Lident "array"; _ }, [ elt ]) ->
              if is_int_type elt then Some "int array"
              else if is_atomic_type elt then Some "Atomic.t array"
              else None
          | _ -> None
        in
        (match hot_array with
        | Some shape
          when not
                 (allows "R6" ld.pld_attributes || allows "R6" ld.pld_type.ptyp_attributes) ->
            report ctx "R6" ld.pld_loc
              (Printf.sprintf
                 "field `%s` is a plain %s — per-domain hot counters share cache lines; use \
                  Padded, or annotate a deliberate layout with [@rc_lint.allow \
                  \"R6\"]"
                 ld.pld_name.txt shape)
        | _ -> ());
        super#label_declaration ld
    end
  in
  it#structure st

(* Floating [@@@rc_lint.allow "R"] attributes: each one suppresses the
   rule for every finding at or below its own line. *)
let file_suppressions st =
  let spans = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        (match si.pstr_desc with
        | Pstr_attribute a -> (
            match allow_payload a with
            | Some rule -> spans := (rule, a.attr_loc.loc_start.pos_lnum) :: !spans
            | None -> ())
        | _ -> ());
        super#structure_item si
    end
  in
  it#structure st;
  !spans

let suppressed_by spans (f : Finding.t) =
  List.exists
    (fun (rule, from_line) ->
      (String.equal rule f.Finding.rule || String.equal (String.lowercase_ascii rule) "all")
      && f.Finding.line >= from_line)
    spans

let lint_structure ~roles ctx st =
  if roles.protocol then run_r1 ctx st;
  if not roles.unsafe_allowed then run_r4 ctx st;
  if roles.obs_smr then run_r6 ctx st;
  let spans = file_suppressions st in
  ctx.findings <- List.filter (fun f -> not (suppressed_by spans f)) ctx.findings

let lint_string ?(allow_unsafe = []) ~filename src =
  let ctx = { file = filename; findings = [] } in
  let roles = roles_of ~allow_unsafe filename in
  (try
     let lexbuf = Lexing.from_string src in
     Lexing.set_filename lexbuf filename;
     let st = Parse.implementation lexbuf in
     lint_structure ~roles ctx st
   with e ->
     let line =
       match e with
       | Syntaxerr.Error err -> (Syntaxerr.location_of_error err).loc_start.pos_lnum
       | _ -> 1
     in
     ctx.findings <-
       [
         {
           Finding.file = filename;
           line;
           col = 0;
           rule = "parse";
           msg = Printf.sprintf "cannot parse: %s" (Printexc.to_string e);
         };
       ]);
  List.sort Finding.compare ctx.findings

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?allow_unsafe path = lint_string ?allow_unsafe ~filename:path (read_file path)

(* ------------------------------------------------------------------ *)
(* File collection and allowlist                                       *)
(* ------------------------------------------------------------------ *)

let rec collect_ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun name -> name <> "_build" && name.[0] <> '.')
    |> List.concat_map (fun name -> collect_ml_files (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let load_allowlist path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc else go (line :: acc)
      in
      go [])

let lint_paths ?(allow_unsafe = []) paths =
  paths
  |> List.concat_map collect_ml_files
  |> List.concat_map (fun f -> lint_file ~allow_unsafe f)
  |> List.sort Finding.compare
