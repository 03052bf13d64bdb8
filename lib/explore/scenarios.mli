(** Schedule-exploration scenarios (DESIGN.md §8, §14): the production
    sticky counter, acquire–retire over hazard pointers and CDRC control
    block, packaged as {!Sched.scenario} values for the DFS/PCT/random
    explorers. Every builder reports to a fresh
    [Analysis.Race_monitor], which opts the scenario into interposition
    and checks each schedule for lifetime-rule and rc-ledger
    violations. Builders taking [?mutate] or [?mutant] produce, when
    set, a seeded protocol bug that exploration must catch. *)

val sticky_one_death : domains:int -> ops:int -> unit -> Sched.scenario
(** [domains] fibers each run [ops] paired increment/decrement bursts;
    the check asserts exactly one death credit was granted (Fig 7). *)

val sticky_load_vs_decrement : ?mutate:bool -> ?loads:int -> unit -> Sched.scenario
(** Loads racing the killing decrement: the zero/help-flag dance.
    [mutate] omits the help-flag publish, losing a death credit. *)

(** Operation alphabet for the linearizability-style sticky harness. *)
type sticky_op = Inc | Dec | Load

val pp_sticky_op : Format.formatter -> sticky_op -> unit

val sticky_model : int -> sticky_op -> int * int
(** Sequential specification: [sticky_model count op] returns the next
    count and the op's observed result ([Load] sees the count; [Inc]
    and [Dec] report the count they produced). *)

val sticky_lincheck : ?mutate:bool -> seqs:sticky_op list array -> unit -> Sched.scenario
(** Run one fixed op sequence per fiber and check the concurrent
    history against {!sticky_model} over all linearizations. *)

(** Seeded hazard-pointer bugs, each a wrapper module around [Smr.Hp]:
    [Skip_confirm] makes [confirm] constantly [true] (validation
    elision); [Drop_announce] announces [Smr.Ident.null] and confirms
    [true]. *)
type slot_mutant = Skip_confirm | Drop_announce

val slots : ?mutant:slot_mutant -> unit -> Sched.scenario
(** A reader protects through the production [Acquire_retire] scope
    over [Smr.Hp] while a reclaimer swings the location twice, retires
    both old nodes and ejects: no use-after-free, every deref ordered
    before its free (Fig 2). *)

val handoff : ?mutate:bool -> unit -> Sched.scenario
(** Ownership hand-off ordered purely by happens-before (the
    [*_manual] transfer idiom): producer unlinks, mails the node,
    waits for the ack, then retires and frees. [mutate] retires and
    frees before the hand-off — the racing deref must be caught. *)

val weak_upgrade : ?mutate:bool -> unit -> Sched.scenario
(** CDRC weak upgrade vs the final strong drop: dispose exactly once,
    free exactly once, upgrades and drops balance in the rc ledger
    (Figs 8-9). [mutate] makes one fiber drop its strong reference
    twice — the duplicated decrement must be flagged. *)

val racy_counter : unit -> Sched.scenario
(** Harness self-check: a deliberately racy read-modify-write whose
    lost update MUST be found by exploration. *)
