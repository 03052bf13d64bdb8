(** The schedule-sensitive heart of a CDRC control block (paper §4,
    Figs 8–9).

    A control block's lifecycle is driven by three cells — the strong
    sticky counter, the weak sticky counter, and the value cell that is
    atomically emptied exactly once at disposal — and the races that
    matter all run through them: a weak upgrade ([try_upgrade], Fig 9's
    increment-if-not-zero) racing the final strong decrement, a reader
    dereferencing the value cell racing the dispose, the last weak
    decrement racing a weak copy. [Cdrc.Make] wires this module up with
    deferral, guards and birth epochs; none of those add scheduling
    points to the lifecycle itself, so the explorer drives this module
    directly. *)

module Counter = Sticky.Sticky_counter

type 'a t = {
  value : 'a option Sched.Atomic.t;  (* [None] once disposed *)
  strong : Counter.t;
  weak : Counter.t;  (* #weak refs + (1 if strong > 0) *)
}

let make v =
  { value = Sched.Atomic.make (Some v); strong = Counter.create 1; weak = Counter.create 1 }

(* ---- value cell ---- *)

let read cb = Sched.Atomic.get cb.value

(** Atomically take the value for disposal; [None] means a second
    disposal raced us, which the caller must treat as a protocol
    violation. *)
let take cb = Sched.Atomic.exchange cb.value None

let clear cb = Sched.Atomic.set cb.value None

(* ---- strong side ---- *)

let expired cb = Counter.is_zero cb.strong

(** Fig 9 upgrade: revive-free increment-if-not-zero on the strong
    count. The single primitive behind [Weak.lock],
    [Weak_snapshot.to_shared] and the out-of-guards fallback of
    [Awp.get_snapshot]. *)
let try_upgrade cb = Counter.increment_if_not_zero cb.strong

(** [true] iff this decrement brought the strong count to zero —
    exactly one caller per death gets the disposal duty. *)
let strong_decrement cb = Counter.decrement cb.strong

let strong_count cb = Counter.load cb.strong

(* ---- weak side ---- *)

let weak_increment_if_not_zero cb = Counter.increment_if_not_zero cb.weak

(** [true] iff this decrement brought the weak count to zero — the
    winner frees the control block itself. *)
let weak_decrement cb = Counter.decrement cb.weak

let weak_count cb = Counter.load cb.weak
