(** The schedule-sensitive heart of a CDRC control block (paper §4,
    Figs 7–9). A control block is one record ([Cdrc.Make]'s [Cb]): the
    value sits inline beside three atomic words — the strong and the
    weak sticky counter and the block's {!Simheap} word, whose dead bit
    disposal claims once — and the races that matter all run through
    them: a weak upgrade ([try_upgrade], Fig 9's increment-if-not-zero)
    racing the final strong decrement, a reader's disposed check racing
    the dispose, the last weak decrement racing a weak copy. The
    lifecycle steps are written once, here, as functions of the block's
    atomics; [Cdrc.Make], the schedule explorer and the atomics profiles
    all call them. Deferral, guards and birth epochs add no scheduling
    points to the lifecycle itself. *)

module Counter = Sticky.Sticky_counter

type counter = Counter.t

(** A new block's counts: each starts at one (the weak count's unit is
    the strong side's). A fresh {!Simheap} block is not disposed. *)
let one () = Counter.create 1

(* ---- disposal: the heap block's dead bit ---- *)

(** The check a dereference makes, one get of the block word: [true]
    once disposed, and [Simheap.Use_after_free] once freed. *)
let disposed b = Simheap.check_dead b

(** Claim the disposal with one fetch-and-add: [true] for exactly one
    caller. [false] means a second disposal raced us, which the caller
    must treat as a protocol violation. *)
let dispose_once b = Simheap.mark_dead b

(* ---- strong side ---- *)

let expired strong = Counter.is_zero strong

(** Fig 9 upgrade: revive-free increment-if-not-zero on the strong
    count. The single primitive behind [Weak.lock],
    [Weak_snapshot.to_shared] and the out-of-guards fallback of
    [Awp.get_snapshot]. *)
let try_upgrade strong = Counter.increment_if_not_zero strong

(** [true] iff this decrement brought the strong count to zero —
    exactly one caller per death gets the disposal duty. *)
let strong_decrement strong = Counter.decrement strong

(* ---- weak side (#weak refs + 1 while strong > 0) ---- *)

let weak_increment_if_not_zero weak = Counter.increment_if_not_zero weak

(** [true] iff this decrement brought the weak count to zero — the
    winner frees the control block itself. *)
let weak_decrement weak = Counter.decrement weak

let count c = Counter.load c
