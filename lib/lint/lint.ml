(** rc-lint: static retire-discipline and atomic-discipline checks for
    the reclamation stack (DESIGN.md §9).

    The analyzer parses each [.ml] file with the ppxlib parser and runs
    a set of purely syntactic rules over the AST. Rules are
    deliberately approximate — they encode the repo's protocol
    conventions (CAS-helper naming, retire naming, the [Sched.Atomic]
    discipline of §8) rather than a points-to analysis, which is the
    Meyer–Wolff observation: the retire obligations are simple enough
    to be checked on the syntax of disciplined code. The protection
    obligations (release every guard, let none escape its scope) need
    no rule: [Acquire_retire]'s rank-2 scopes discharge them by type.

    Suppression: [\[@@@rc_lint.allow "R3"\]] as a floating structure
    attribute silences a rule from that point to the end of the file;
    [\[@rc_lint.allow "R3"\]] attached to an expression, value binding,
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
    ( "R3",
      "retire-discipline: retire calls must be dominated by a successful CAS/unlink \
       (an if-then whose condition runs compare_and_set or a *cas* helper)" );
    ( "R4",
      "unsafe-escape: Obj.magic/Obj.repr/Obj.obj forbidden outside \
       tools/rc_lint/allow_unsafe.txt" );
    ( "R5",
      "obs-consistency: an SMR scheme defining retire must touch \
       Obs.Scheme_metrics.on_retire so telemetry cannot silently rot" );
    ( "R6",
      "padding: per-domain hot counter arrays in lib/obs and lib/smr must go through \
       Padded (or annotate the deliberate layout)" );
    ( "R7",
      "knob-capture: scheme code must read tuning knobs through Knobs.t accessors, never \
       store them in its own record fields — a captured constant is invisible to the \
       adaptive controller" );
    ( "R9",
      "use-after-retire: a pointer passed to retire (directly or through a summarized \
       helper that retires its parameter) must not be used on any subsequent path in \
       the function" );
  ]

(* ------------------------------------------------------------------ *)
(* File roles                                                          *)
(* ------------------------------------------------------------------ *)

(* Which rules apply to a file is decided from its path. Fixture files
   under test/lint_fixtures mimic the real layout (ds/, smr/, obs/
   subdirectories), so the same role logic covers both trees. *)
type roles = {
  protocol : bool;  (* a protocol directory or padded.ml: R1 *)
  manual_ds : bool;  (* a *_manual.ml data structure: R3 + R9 *)
  smr_scheme : bool;  (* under an smr/ directory: R5 + R7 *)
  obs_smr : bool;  (* under obs/ or smr/: R6 *)
  unsafe_allowed : bool;  (* listed in allow_unsafe.txt: R4 off *)
  knobs_module : bool;  (* knobs.ml itself — the one legal knob store; R7 off *)
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
    manual_ds = Filename.check_suffix base "_manual.ml";
    smr_scheme = has "smr";
    obs_smr = has "obs" || has "smr";
    unsafe_allowed = List.exists (fun entry -> suffix_matches ~entry path) allow_unsafe;
    knobs_module = String.equal base "knobs.ml";
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

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let retire_names = [ "retire"; "retire_free" ]

let is_family names path =
  match List.rev path with name :: _ -> List.mem name names | [] -> false

let apply_head e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Some (flat txt)
  | _ -> None

(* CAS vocabulary: the primitive itself plus the repo's retrying
   helpers (link_cas, edge_cas, cas_link, ...). *)
let is_casish_name s =
  let s = String.lowercase_ascii s in
  String.equal s "compare_and_set" || contains_substring ~sub:"cas" s

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
(* R3: retire-discipline                                               *)
(* ------------------------------------------------------------------ *)

(* A retire call is accepted only inside the then-arm of an
   if-expression whose condition runs a CAS (directly, or through a
   variable let-bound to a CAS result), anywhere below that arm —
   including local helper functions defined inside it, which is how
   nm_tree's Fig 1a retire_chain loop is structured. *)

let run_r3 ctx st =
  let it =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable dominated = false
      val mutable casvars : string list = []

      method private casish_cond c =
        let found = ref false in
        let vars = casvars in
        let probe =
          object
            inherit Ast_traverse.iter as deeper

            method! expression e =
              if not !found then begin
                (match e.pexp_desc with
                | Pexp_ident { txt = Lident v; _ } when List.mem v vars -> found := true
                | _ -> (
                    match apply_head e with
                    | Some path
                      when (match List.rev path with
                           | n :: _ -> is_casish_name n
                           | [] -> false) ->
                        found := true
                    | _ -> ()));
                if not !found then deeper#expression e
              end
          end
        in
        probe#expression c;
        !found

      method! value_binding vb =
        let skip =
          allows "R3" vb.pvb_attributes
          ||
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } -> List.mem name retire_names
          | _ -> false
        in
        if skip then () else super#value_binding vb

      method! expression e =
        if allows "R3" e.pexp_attributes then ()
        else begin
          let saved_d = dominated and saved_v = casvars in
          (match e.pexp_desc with
          | Pexp_let (_, vbs, body) ->
              List.iter (fun vb -> self#value_binding vb) vbs;
              dominated <- saved_d;
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = v; _ } when self#casish_cond vb.pvb_expr ->
                      casvars <- v :: casvars
                  | _ -> ())
                vbs;
              self#expression body
          | Pexp_ifthenelse (cond, then_, else_) ->
              self#expression cond;
              dominated <- saved_d || self#casish_cond cond;
              self#expression then_;
              dominated <- saved_d;
              Option.iter self#expression else_
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_family retire_names (flat txt) ->
              if not dominated then
                report ctx "R3" e.pexp_loc
                  (Printf.sprintf
                     "`%s` outside a CAS-success arm — the node may still be reachable; \
                      retire only after a successful unlink, or annotate the helper"
                     (String.concat "." (flat txt)));
              List.iter (fun (_, a) -> self#expression a) args
          | _ -> super#expression e);
          dominated <- saved_d;
          casvars <- saved_v
        end
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
(* R5: obs-consistency                                                 *)
(* ------------------------------------------------------------------ *)

let run_r5 ctx st =
  let retire_binding = ref None in
  let touched = ref false in
  let suppressed = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        (match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = "retire"; _ } ->
                    if allows "R5" vb.pvb_attributes then suppressed := true
                    else if !retire_binding = None then retire_binding := Some vb.pvb_loc
                | _ -> ())
              vbs
        | _ -> ());
        super#structure_item si

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match List.rev (flat txt) with
            | "on_retire" :: "Scheme_metrics" :: _ -> touched := true
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#structure st;
  match !retire_binding with
  | Some loc when (not !touched) && not !suppressed ->
      report ctx "R5" loc
        "scheme defines `retire` but never calls Obs.Scheme_metrics.on_retire — the §7 \
         telemetry (retire counters, reclaim-latency histogram) would silently rot"
  | _ -> ()

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

(* ------------------------------------------------------------------ *)
(* R7: knob-capture                                                    *)
(* ------------------------------------------------------------------ *)

(* A scheme record field named after a tuning knob is a constant
   captured at [create] time: the adaptive controller's setters write
   the Knobs.t block, so a copy in scheme state silently stops
   tracking. Schemes store the [Knobs.t] itself and re-read through
   its accessors on every use. ([slots_per_thread] is exempt —
   structural, sized at create by design.) *)

let knob_field_names = [ "epoch_freq"; "cleanup_freq"; "batch_cap"; "sync_scan" ]

let run_r7 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! label_declaration ld =
        if
          List.mem ld.pld_name.txt knob_field_names
          && not
               (allows "R7" ld.pld_attributes || allows "R7" ld.pld_type.ptyp_attributes)
        then
          report ctx "R7" ld.pld_loc
            (Printf.sprintf
               "field `%s` captures a tuning knob in scheme state — store the Knobs.t \
                block and read `Knobs.%s` at each use so the adaptive controller can \
                retune it"
               ld.pld_name.txt ld.pld_name.txt);
        super#label_declaration ld
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R9: use-after-retire                                                *)
(* ------------------------------------------------------------------ *)

let pat_vars p =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern q =
        (match q.ppat_desc with
        | Ppat_var { txt; _ } -> acc := txt :: !acc
        | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
        | _ -> ());
        super#pattern q
    end
  in
  it#pattern p;
  !acc

let param_vars params =
  List.concat_map
    (fun p ->
      match p.pparam_desc with Pparam_val (_, _, pat) -> pat_vars pat | Pparam_newtype _ -> [])
    params

(* Interprocedural life-cycle rule 2: once a pointer variable is passed
   to retire — directly, or through a helper whose summary says it
   retires that parameter — any later occurrence of the variable on any
   path in the function is flagged. After a retire the node can be
   freed by any concurrent eject; even reading it is the race the §14
   sanitizer hunts dynamically, and this is its static shadow.

   Pass 1 builds per-function summaries (one top-down sweep over the
   file: which positional parameters flow into a retire-family call);
   pass 2 walks every function body in syntactic order with a
   may-retire set — branch arms are analyzed independently and their
   exits unioned, rebinding a name clears it, and closures are analyzed
   under the state at their creation point. *)

type r9_summary = (string, int list) Hashtbl.t
(* function name -> positional (unlabelled) argument indices it retires *)

let r9_positional_params e =
  (* the Nolabel parameter names of a [fun p1 -> fun p2 -> ...] chain *)
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_function (params, _, fbody) -> (
        let acc =
          List.fold_left
            (fun acc p ->
              match p.pparam_desc with
              | Pparam_val (Nolabel, _, { ppat_desc = Ppat_var { txt; _ }; _ }) ->
                  txt :: acc
              | _ -> acc)
            acc params
        in
        match fbody with Pfunction_body e' -> go acc e' | Pfunction_cases _ -> List.rev acc)
    | Pexp_constraint (e', _) -> go acc e'
    | _ -> List.rev acc
  in
  go [] e

let r9_build_summaries st : r9_summary =
  let summaries : r9_summary = Hashtbl.create 16 in
  let scan_function name rhs =
    let params = r9_positional_params rhs in
    if params <> [] then begin
      let retired_params = ref [] in
      let it =
        object
          inherit Ast_traverse.iter as super

          method! expression e =
            (match e.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
              when is_family retire_names (flat txt) -> (
                (* only the LAST positional ident is the retired
                   pointer; leading ones are the context *)
                let last_ident =
                  List.fold_left
                    (fun acc (lbl, a) ->
                      match (lbl, a.pexp_desc) with
                      | Nolabel, Pexp_ident { txt = Lident v; _ } -> Some v
                      | _ -> acc)
                    None args
                in
                match last_ident with
                | Some v -> (
                    match List.find_index (String.equal v) params with
                    | Some i when not (List.mem i !retired_params) ->
                        retired_params := i :: !retired_params
                    | _ -> ())
                | None -> ())
            | _ -> ());
            super#expression e
        end
      in
      it#expression rhs;
      if !retired_params <> [] then Hashtbl.replace summaries name !retired_params
    end
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ } when not (List.mem name retire_names) ->
            scan_function name vb.pvb_expr
        | _ -> ());
        super#value_binding vb
    end
  in
  it#structure st;
  summaries

let run_r9 ctx st =
  let summaries = r9_build_summaries st in
  (* [walk retired e] returns the may-retire set after [e]; [retired]
     maps a variable to the line of its retire site. *)
  let rec walk (retired : (string * int) list) e : (string * int) list =
    if allows "R9" e.pexp_attributes then retired
    else begin
      let use v loc =
        match List.assoc_opt v retired with
        | Some line ->
            report ctx "R9" loc
              (Printf.sprintf
                 "`%s` used after retire (retired at line %d) — a retired node may be \
                  freed by any concurrent eject; copy what you need before retiring, or \
                  annotate with [@rc_lint.allow \"R9\"]"
                 v line)
        | None -> ()
      in
      let unbind vars retired = List.filter (fun (v, _) -> not (List.mem v vars)) retired in
      (* The retired pointer is the LAST positional ident argument —
         leading positional args are the per-thread context
         ([retire c n], never the other way around). *)
      let retire_args args retired =
        let last_ident =
          List.fold_left
            (fun acc (lbl, a) ->
              match (lbl, a.pexp_desc) with
              | Nolabel, Pexp_ident { txt = Lident v; _ } -> Some (v, a.pexp_loc)
              | _ -> acc)
            None args
        in
        match last_ident with
        | Some (v, loc) when not (List.mem_assoc v retired) ->
            (v, loc.loc_start.pos_lnum) :: retired
        | _ -> retired
      in
      match e.pexp_desc with
      | Pexp_ident { txt = Lident v; _ } ->
          use v e.pexp_loc;
          retired
      | Pexp_let (_, vbs, body) ->
          let r = List.fold_left (fun r vb -> walk r vb.pvb_expr) retired vbs in
          let bound = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
          walk (unbind bound r) body
      | Pexp_sequence (e1, e2) -> walk (walk retired e1) e2
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
        when is_family retire_names (flat txt) ->
          (* flag uses inside the args first (covers double retire),
             then mark the retired variables *)
          let r = List.fold_left (fun r (_, a) -> walk r a) retired args in
          retire_args args r
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident f; _ }; _ }, args)
        when Hashtbl.mem summaries f ->
          let r = List.fold_left (fun r (_, a) -> walk r a) retired args in
          let retiring = Hashtbl.find summaries f in
          let _, r =
            List.fold_left
              (fun (i, acc) (lbl, a) ->
                match (lbl, a.pexp_desc) with
                | Nolabel, Pexp_ident { txt = Lident v; _ } ->
                    if List.mem i retiring && not (List.mem_assoc v acc) then
                      (i + 1, (v, a.pexp_loc.loc_start.pos_lnum) :: acc)
                    else (i + 1, acc)
                | Nolabel, _ -> (i + 1, acc)
                | _ -> (i, acc))
              (0, r) args
          in
          r
      | Pexp_apply (head, args) ->
          List.fold_left (fun r (_, a) -> walk r a) (walk retired head) args
      | Pexp_ifthenelse (cond, t, eo) ->
          let r0 = walk retired cond in
          let r1 = walk r0 t in
          let r2 = match eo with Some e' -> walk r0 e' | None -> r0 in
          (* may-retire: union of the arms *)
          r1 @ List.filter (fun (v, _) -> not (List.mem_assoc v r1)) r2
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          let r0 = walk retired scrut in
          List.fold_left
            (fun acc c ->
              Option.iter (fun g -> ignore (walk r0 g)) c.pc_guard;
              let ri = walk (unbind (pat_vars c.pc_lhs) r0) c.pc_rhs in
              acc @ List.filter (fun (v, _) -> not (List.mem_assoc v acc)) ri)
            r0 cases
      | Pexp_function (params, _, fbody) ->
          let inner = unbind (param_vars params) retired in
          (match fbody with
          | Pfunction_body e' -> ignore (walk inner e')
          | Pfunction_cases (cases, _, _) ->
              List.iter
                (fun c -> ignore (walk (unbind (pat_vars c.pc_lhs) inner) c.pc_rhs))
                cases);
          retired
      | Pexp_tuple es | Pexp_array es -> List.fold_left walk retired es
      | Pexp_construct (_, eo) | Pexp_variant (_, eo) ->
          Option.fold ~none:retired ~some:(walk retired) eo
      | Pexp_record (fields, base) ->
          let r = Option.fold ~none:retired ~some:(walk retired) base in
          List.fold_left (fun r (_, e') -> walk r e') r fields
      | Pexp_field (e', _) -> walk retired e'
      | Pexp_setfield (o, _, v) -> walk (walk retired o) v
      | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_assert e' | Pexp_lazy e'
      | Pexp_open (_, e') ->
          walk retired e'
      | Pexp_while (c, b) ->
          ignore (walk (walk retired c) b);
          retired
      | Pexp_for (p, lo, hi, _, b) ->
          let r = walk (walk retired lo) hi in
          ignore (walk (unbind (pat_vars p) r) b);
          r
      | Pexp_letmodule (_, _, e') -> walk retired e'
      | _ ->
          (* other node kinds neither bind nor retire in this codebase;
             still surface any use of an already-retired variable *)
          if retired <> [] then begin
            let probe =
              object
                inherit Ast_traverse.iter as super

                method! expression e' =
                  (match e'.pexp_desc with
                  | Pexp_ident { txt = Lident v; _ } -> use v e'.pexp_loc
                  | _ -> ());
                  super#expression e'
              end
            in
            probe#expression e
          end;
          retired
    end
  in
  let top =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let skip =
                  allows "R9" vb.pvb_attributes
                  ||
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ } -> List.mem name retire_names
                  | _ -> false
                in
                if not skip then ignore (walk [] vb.pvb_expr))
              vbs
        | _ -> super#structure_item si
    end
  in
  top#structure st

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
  if roles.manual_ds then begin
    run_r3 ctx st;
    run_r9 ctx st
  end;
  if not roles.unsafe_allowed then run_r4 ctx st;
  if roles.smr_scheme then run_r5 ctx st;
  if roles.obs_smr then run_r6 ctx st;
  if roles.smr_scheme && not roles.knobs_module then run_r7 ctx st;
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
