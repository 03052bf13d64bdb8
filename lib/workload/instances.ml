(** The full evaluation matrix: every (structure × scheme ×
    manual/automatic) combination from the paper's §5, as first-class
    modules the benchmark harness iterates over.

    Manual schemes: HP, EBR, IBR, Hyaline (+ HE and PTB as our
    extensions). Automatic: RCHP (= CDRC), RCEBR, RCIBR, RCHyaline
    (+ RCHE, RCPTB). *)

module RC_ebr = Cdrc.Make (Smr.Ebr)
module RC_ibr = Cdrc.Make (Smr.Ibr)
module RC_hyaline = Cdrc.Make (Smr.Hyaline)
module RC_hp = Cdrc.Make (Smr.Hp)
module RC_he = Cdrc.Make (Smr.Hazard_eras)
module RC_ptb = Cdrc.Make (Smr.Ptb)

(* RC over the no-op scheme ("RCNone"): decrements defer forever until
   quiesce drains them, making it the leak-upper-bound baseline of the
   KV sweep. *)
module RC_none = Cdrc.Make (Smr.Leaky)

(* The evaluation's schemes, manual and automatic, in table order.
   Every structure below is instantiated over them. *)
let manual_schemes : (module Smr.Smr_intf.S) list =
  [
    (module Smr.Ebr);
    (module Smr.Ibr);
    (module Smr.Hyaline);
    (module Smr.Hp);
    (module Smr.Hazard_eras);
    (module Smr.Ptb);
  ]

(* The six manual schemes and the leak-everything baseline, by name, in
   the order the robustness experiment reports them. *)
let named_schemes : (string * (module Smr.Smr_intf.S)) list =
  [
    ("EBR", (module Smr.Ebr : Smr.Smr_intf.S));
    ("IBR", (module Smr.Ibr));
    ("HP", (module Smr.Hp));
    ("HE", (module Smr.Hazard_eras));
    ("Hyaline", (module Smr.Hyaline));
    ("PTB", (module Smr.Ptb));
    ("None", (module Smr.Leaky));
  ]

(* The schemes whose garbage stays bounded under a stalled thread (the
   paper's robustness column): EBR and Hyaline pin everything behind a
   frozen frontier, and None defers forever by construction. *)
let robust_schemes = [ "IBR"; "HP"; "HE"; "PTB" ]

let rc_schemes : (module Cdrc.Intf.S) list =
  [
    (module RC_ebr);
    (module RC_ibr);
    (module RC_hyaline);
    (module RC_hp);
    (module RC_he);
    (module RC_ptb);
  ]

let rc_schemes_but (module X : Cdrc.Intf.S) =
  List.filter (fun (module R : Cdrc.Intf.S) -> R.scheme_name <> X.scheme_name) rc_schemes

module type STACK = sig
  val name : string

  type t
  type ctx

  val create : ?slots_per_thread:int -> ?epoch_freq:int -> max_threads:int -> unit -> t
  val ctx : t -> int -> ctx
  val push : ctx -> int -> unit
  val pop : ctx -> int option
  val flush : ctx -> unit
  val size : t -> int
  val live_objects : t -> int

  val retired_backlog : t -> int
  (** Entries retired but not yet reclaimed, as in {!Ds.Set_intf.S}. *)

  val teardown : t -> unit
end

(* Treiber stacks (extension: not a paper benchmark, but the smallest
   SMR consumer): every manual scheme but PTB plus the leak-everything
   "None", then their RC conversions. *)
let stacks : (module STACK) list =
  List.map
    (fun (module S : Smr.Smr_intf.S) -> (module Ds.Treiber_stack_manual.Make (S) : STACK))
    (List.filter (fun (module S : Smr.Smr_intf.S) -> S.name <> Smr.Ptb.name) manual_schemes
    @ [ (module Smr.Leaky) ])
  @ List.map
      (fun (module R : Cdrc.Intf.S) -> (module Ds.Treiber_stack_rc.Make (R) : STACK))
      (rc_schemes_but (module RC_ptb))

type structure = List_s | Hash_s | Tree_s

let structure_name = function List_s -> "list" | Hash_s -> "hash" | Tree_s -> "tree"

type set_instance = (module Ds.Set_intf.S)

(* Harris-Michael list, Michael hash table, Natarajan-Mittal tree. *)
let manual_sets structure =
  List.map
    (fun (module S : Smr.Smr_intf.S) : set_instance ->
      match structure with
      | List_s -> (module Ds.Hm_list_manual.Make (S))
      | Hash_s -> (module Ds.Hash_table_manual.Make (S))
      | Tree_s -> (module Ds.Nm_tree_manual.Make (S)))
    manual_schemes

let rc_sets structure =
  List.map
    (fun (module R : Cdrc.Intf.S) : set_instance ->
      match structure with
      | List_s -> (module Ds.Hm_list_rc.Make (R))
      | Hash_s -> (module Ds.Hash_table_rc.Make (R))
      | Tree_s -> (module Ds.Nm_tree_rc.Make (R)))
    rc_schemes

let all_sets s = manual_sets s @ rc_sets s

(* Doubly-linked queues (Fig 12): Ramalhete-Correia's original, our
   weak-pointer queue over every RC runtime (the paper's "our
   algorithm" uses the hazard-pointer one, listed first), and the
   locked stand-in. *)
let queues : (module Ds.Queue_intf.S) list =
  ((module Ds.Dl_queue_manual.Make ()) : (module Ds.Queue_intf.S))
  :: List.map
       (fun (module R : Cdrc.Intf.S) -> (module Ds.Dl_queue_rc.Make (R) : Ds.Queue_intf.S))
       ((module RC_hp) :: rc_schemes_but (module RC_hp))
  @ [ (module Ds.Dl_queue_locked.Make ()) ]

(* Scheme names are matched case-insensitively and ignoring '-'/'_',
   so "rc-ebr" and "RC_EBR" both select "RCEBR". *)
let normalize_name s =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char '-' (String.concat "" (String.split_on_char '_' s))))

let find_named name_of candidates name =
  List.find_opt (fun c -> normalize_name (name_of c) = normalize_name name) candidates

(* Resolve a [--schemes] list against [all] ([[]] selects all of it),
   keeping the first of duplicate picks. [Error] names every unknown
   entry, so a typo fails the command instead of silently shrinking
   the run. *)
let select ~find all = function
  | [] -> Ok all
  | names -> (
      match List.filter (fun n -> Option.is_none (find n)) names with
      | [] ->
          let keep picked x = if List.memq x picked then picked else x :: picked in
          Ok (List.rev (List.fold_left keep [] (List.filter_map find names)))
      | unknown ->
          Error
            ("unknown scheme " ^ String.concat ", " (List.map (Printf.sprintf "%S") unknown)))

(* ---------------------------------------------------------------- *)
(* Sharded KV service (DESIGN.md §12): automatic schemes only — the
   serving workload exists to stress the RC conversion's deferred
   decrements under overwrite/TTL churn. Listed under the {e bare}
   scheme name so KV perf cells share the scheme axis with the rest of
   the BENCH trajectory. *)

module Kv_ebr = Kv_service.Make (RC_ebr)
module Kv_ibr = Kv_service.Make (RC_ibr)
module Kv_hyaline = Kv_service.Make (RC_hyaline)
module Kv_hp = Kv_service.Make (RC_hp)
module Kv_he = Kv_service.Make (RC_he)
module Kv_ptb = Kv_service.Make (RC_ptb)
module Kv_none = Kv_service.Make (RC_none)

let kv_services : (string * (module Kv_intf.S)) list =
  [
    ("EBR", (module Kv_ebr : Kv_intf.S));
    ("IBR", (module Kv_ibr));
    ("Hyaline", (module Kv_hyaline));
    ("HP", (module Kv_hp));
    ("HE", (module Kv_he));
    ("PTB", (module Kv_ptb));
    ("None", (module Kv_none));
  ]
