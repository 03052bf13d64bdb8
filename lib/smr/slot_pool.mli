(** One thread's free announcement slots, for the schemes whose guards
    are slot indices (HP, HE, PTB). Owner-thread-only.

    A LIFO stack in a preallocated array: {!take} hands out the slot
    {!give} returned last, as the free list it replaces did. Neither
    call allocates, not even the option {!take} returns, which is one of
    [k] preallocated [Some] blocks — a snapshot's fast path takes and
    gives one slot each. *)

type t

val create : int -> t
(** [create k]: slots [0 .. k-1], all free, handed out in increasing
    order. *)

val take : t -> int option
(** A free slot, or [None] when all [k] are taken. *)

val give : t -> int -> unit
(** Return a slot {!take} handed out. Giving back a slot that is
    already free does nothing: after a {!reset}, a crashed thread's
    replayed releases cannot hand one slot out twice. *)

val reset : t -> unit
(** Free every slot again, as {!create} left them (crash recovery). *)
