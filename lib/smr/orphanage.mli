(** Shared pool of retired entries orphaned by a crashed thread.

    Retired lists are owner-only, so when [abandon] reaps a crashed
    thread it cannot push the dead thread's entries into a survivor's
    queue directly. Instead they land here, batch-at-a-time
    (Hyaline-style adoption): any thread's next eject scan calls
    {!adopt} and folds the orphans through the scheme's usual safety
    check, re-pooling the ones still protected. The metadata travels
    in each retire record, so adopted garbage is held back exactly as
    long as home-grown garbage. The pool is a chain threaded through
    the records' links. [Acquire_retire] pools a crashed pid's ejected
    but unrun records the same way.

    Lock-free; [take_all] transfers ownership of the whole batch to the
    caller. *)

type t

val create : unit -> t

val put : t -> Deferred.t -> unit
(** Add a [Nil]-terminated chain of orphaned records, ahead of those
    already pooled (no-op on [Nil]). *)

val take_all : t -> Deferred.t
(** Remove and return every pooled record as a chain; the caller must
    either run or re-pool each one. *)

val adopt : t -> into:Retire_queue.t -> ('env -> Deferred.t -> bool) -> 'env -> unit
(** [adopt t ~into safe env] takes the pool, moves the records
    [safe env] accepts to the tail of [into], in order, and puts the
    rest back: an eject scan's adoption step. One exchange when the
    pool is empty, and no allocation. *)
