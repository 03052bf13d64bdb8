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

(* Harris-Michael list *)
module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module L_ibr = Ds.Hm_list_manual.Make (Smr.Ibr)
module L_hyaline = Ds.Hm_list_manual.Make (Smr.Hyaline)
module L_hp = Ds.Hm_list_manual.Make (Smr.Hp)
module L_he = Ds.Hm_list_manual.Make (Smr.Hazard_eras)
module L_ptb = Ds.Hm_list_manual.Make (Smr.Ptb)
module Lr_ebr = Ds.Hm_list_rc.Make (RC_ebr)
module Lr_ibr = Ds.Hm_list_rc.Make (RC_ibr)
module Lr_hyaline = Ds.Hm_list_rc.Make (RC_hyaline)
module Lr_hp = Ds.Hm_list_rc.Make (RC_hp)
module Lr_he = Ds.Hm_list_rc.Make (RC_he)
module Lr_ptb = Ds.Hm_list_rc.Make (RC_ptb)

(* Michael hash table *)
module H_ebr = Ds.Hash_table_manual.Make (Smr.Ebr)
module H_ibr = Ds.Hash_table_manual.Make (Smr.Ibr)
module H_hyaline = Ds.Hash_table_manual.Make (Smr.Hyaline)
module H_hp = Ds.Hash_table_manual.Make (Smr.Hp)
module H_he = Ds.Hash_table_manual.Make (Smr.Hazard_eras)
module H_ptb = Ds.Hash_table_manual.Make (Smr.Ptb)
module Hr_ebr = Ds.Hash_table_rc.Make (RC_ebr)
module Hr_ibr = Ds.Hash_table_rc.Make (RC_ibr)
module Hr_hyaline = Ds.Hash_table_rc.Make (RC_hyaline)
module Hr_hp = Ds.Hash_table_rc.Make (RC_hp)
module Hr_he = Ds.Hash_table_rc.Make (RC_he)
module Hr_ptb = Ds.Hash_table_rc.Make (RC_ptb)

(* Natarajan-Mittal tree *)
module T_ebr = Ds.Nm_tree_manual.Make (Smr.Ebr)
module T_ibr = Ds.Nm_tree_manual.Make (Smr.Ibr)
module T_hyaline = Ds.Nm_tree_manual.Make (Smr.Hyaline)
module T_hp = Ds.Nm_tree_manual.Make (Smr.Hp)
module T_he = Ds.Nm_tree_manual.Make (Smr.Hazard_eras)
module T_ptb = Ds.Nm_tree_manual.Make (Smr.Ptb)
module Tr_ebr = Ds.Nm_tree_rc.Make (RC_ebr)
module Tr_ibr = Ds.Nm_tree_rc.Make (RC_ibr)
module Tr_hyaline = Ds.Nm_tree_rc.Make (RC_hyaline)
module Tr_hp = Ds.Nm_tree_rc.Make (RC_hp)
module Tr_he = Ds.Nm_tree_rc.Make (RC_he)
module Tr_ptb = Ds.Nm_tree_rc.Make (RC_ptb)

(* Doubly-linked queues (Fig 12). The paper's "our algorithm" uses the
   hazard-pointer acquire-retire; we expose every scheme. *)
module Q_rc_hp = Ds.Dl_queue_rc.Make (RC_hp)
module Q_rc_ebr = Ds.Dl_queue_rc.Make (RC_ebr)
module Q_rc_ibr = Ds.Dl_queue_rc.Make (RC_ibr)
module Q_rc_hyaline = Ds.Dl_queue_rc.Make (RC_hyaline)
module Q_rc_he = Ds.Dl_queue_rc.Make (RC_he)
module Q_rc_ptb = Ds.Dl_queue_rc.Make (RC_ptb)
module Q_manual = Ds.Dl_queue_manual.Make ()
module Q_locked = Ds.Dl_queue_locked.Make ()

(* Treiber stacks (extension: not a paper benchmark, but the smallest
   SMR consumer; used by the ext-stack table). *)
module St_ebr = Ds.Treiber_stack_manual.Make (Smr.Ebr)
module St_ibr = Ds.Treiber_stack_manual.Make (Smr.Ibr)
module St_hyaline = Ds.Treiber_stack_manual.Make (Smr.Hyaline)
module St_hp = Ds.Treiber_stack_manual.Make (Smr.Hp)
module St_he = Ds.Treiber_stack_manual.Make (Smr.Hazard_eras)
module St_leaky = Ds.Treiber_stack_manual.Make (Smr.Leaky)
module Str_ebr = Ds.Treiber_stack_rc.Make (RC_ebr)
module Str_ibr = Ds.Treiber_stack_rc.Make (RC_ibr)
module Str_hyaline = Ds.Treiber_stack_rc.Make (RC_hyaline)
module Str_hp = Ds.Treiber_stack_rc.Make (RC_hp)
module Str_he = Ds.Treiber_stack_rc.Make (RC_he)

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

let stacks : (module STACK) list =
  [
    (module St_ebr : STACK);
    (module St_ibr);
    (module St_hyaline);
    (module St_hp);
    (module St_he);
    (module St_leaky);
    (module Str_ebr);
    (module Str_ibr);
    (module Str_hyaline);
    (module Str_hp);
    (module Str_he);
  ]

type structure = List_s | Hash_s | Tree_s

let structure_name = function List_s -> "list" | Hash_s -> "hash" | Tree_s -> "tree"

type set_instance = (module Ds.Set_intf.S)

let manual_sets = function
  | List_s ->
      [
        (module L_ebr : Ds.Set_intf.S);
        (module L_ibr);
        (module L_hyaline);
        (module L_hp);
        (module L_he);
        (module L_ptb);
      ]
  | Hash_s ->
      [
        (module H_ebr : Ds.Set_intf.S);
        (module H_ibr);
        (module H_hyaline);
        (module H_hp);
        (module H_he);
        (module H_ptb);
      ]
  | Tree_s ->
      [
        (module T_ebr : Ds.Set_intf.S);
        (module T_ibr);
        (module T_hyaline);
        (module T_hp);
        (module T_he);
        (module T_ptb);
      ]

let rc_sets = function
  | List_s ->
      [
        (module Lr_ebr : Ds.Set_intf.S);
        (module Lr_ibr);
        (module Lr_hyaline);
        (module Lr_hp);
        (module Lr_he);
        (module Lr_ptb);
      ]
  | Hash_s ->
      [
        (module Hr_ebr : Ds.Set_intf.S);
        (module Hr_ibr);
        (module Hr_hyaline);
        (module Hr_hp);
        (module Hr_he);
        (module Hr_ptb);
      ]
  | Tree_s ->
      [
        (module Tr_ebr : Ds.Set_intf.S);
        (module Tr_ibr);
        (module Tr_hyaline);
        (module Tr_hp);
        (module Tr_he);
        (module Tr_ptb);
      ]

let all_sets s = manual_sets s @ rc_sets s

let queues : (module Ds.Queue_intf.S) list =
  [
    (module Q_manual : Ds.Queue_intf.S);
    (module Q_rc_hp);
    (module Q_rc_ebr);
    (module Q_rc_ibr);
    (module Q_rc_hyaline);
    (module Q_rc_he);
    (module Q_rc_ptb);
    (module Q_locked);
  ]

(* Scheme names are matched case-insensitively and ignoring '-'/'_',
   so "rc-ebr" and "RC_EBR" both select "RCEBR". *)
let normalize_name s =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char '-' (String.concat "" (String.split_on_char '_' s))))

let find_named name_of candidates name =
  List.find_opt (fun c -> normalize_name (name_of c) = normalize_name name) candidates

let find_set structure =
  find_named (fun (module D : Ds.Set_intf.S) -> D.name) (all_sets structure)

let find_queue = find_named (fun (module Q : Ds.Queue_intf.S) -> Q.name) queues

(* Resolve a [--schemes] list against [all] ([[]] selects all of it).
   [Error] names every unknown entry, so a typo fails the command
   instead of silently shrinking the run. *)
let select ~find all = function
  | [] -> Ok all
  | names -> (
      match List.filter (fun n -> Option.is_none (find n)) names with
      | [] -> Ok (List.filter_map find names)
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

let find_kv name =
  List.find_opt
    (fun (n, _) ->
      normalize_name n = normalize_name name
      || normalize_name ("RC" ^ n) = normalize_name name)
    kv_services
