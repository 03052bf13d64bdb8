(** Happens-before race & pointer-lifetime sanitizer (DESIGN.md §14).

    One monitor checks one explored schedule. {!create} opts the
    scenario into interposition ({!Sched.interpose}), so every
    [Sched.Atomic] operation of its fibers feeds the FastTrack-style
    vector-clock engine; the scenarios in [lib/explore] report protocol
    events explicitly. Violations raise {!Violation} at the offending event —
    inside the offending fiber — so the explorers surface them with the
    executed schedule and a replay recipe, like any oracle failure.

    Checked properties:
    - {b (a)} a fiber dereferencing a {e retired} block must hold a
      guard covering it (and a {e freed} block is out of bounds
      altogether) — the message names the racing deref and retire/free,
      their fibers and steps;
    - {b (b)} at [free], every recorded deref of the block must be
      happens-before-ordered under the freer's clock — "protection
      interval not ordered before the matching free";
    - {b (c)} the reference-count ledger: no duplicated or lost
      decrements/death credits, no increment after death.

    The monitor is per-schedule: build a fresh one inside the scenario
    builder ([mk ()]); [Sched]'s controller clears the tracer hook when
    the run finishes. *)

exception Violation of string

type t

val create : fibers:int -> unit -> t
(** [create ~fibers:n ()] — a monitor for a scenario with [n] fibers.
    Installs itself as the scheduler's tracer (replacing any previous
    one), which opts the scenario being built into interposition. Clock component [n] is the setup/oracle context: events
    reported while [Sched.current_fiber () = -1] are attributed to it;
    setup happens-before every fiber, the oracle follows all of them. *)

val on_op : t -> Sched.op_event -> unit
(** The tracer feed ({!create} installs it; exposed for tests). Each
    atomic op acquires the location's last-sync clock, releases its own
    frontier there, then ticks. *)

(** {1 Protocol events}

    All events attribute themselves via [Sched.current_fiber] /
    [Sched.current_step]. *)

val register : t -> ident:int -> unit
(** A block identified by [ident] becomes live. *)

val acquire : t -> ident:int -> unit
(** The current context announces a guard covering [ident]. Report this
    only when the announcement {e actually} covers the block (read the
    slot back), or a dropped-acquire bug becomes invisible. *)

val release : t -> ident:int -> unit
(** Drop one guard on [ident] held by the current context (no-op if it
    holds none). *)

val deref : t -> ident:int -> unit
(** The current fiber dereferences the block — rule (a) checked here,
    and the deref is recorded (with a clock snapshot) for rule (b).
    Oracle-context derefs are exempt and unrecorded. *)

val retire : t -> ident:int -> unit
(** The block leaves the data structure; flags double retires. *)

val free : t -> ident:int -> unit
(** Physical reclamation — rule (b) checked here, plus double-free and
    free-without-retire (the latter exempt in the oracle context). *)

val rc_register : t -> ident:int -> count:int -> unit
(** Start the rc ledger for cell [ident] at [count]. *)

val rc_incr : t -> ident:int -> unit
(** A successful increment; flags increments after the death credit. *)

val rc_decr : t -> ident:int -> death:bool -> unit
(** A decrement; [death] marks the caller that took the death credit.
    Flags negative counts and duplicated death credits. *)

val check : t -> unit
(** Final oracle: flags lost death credits (count reached 0 with no
    death reported) and death credits taken with references
    outstanding. Call from the scenario's [check]. *)
