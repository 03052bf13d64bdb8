(** An intrusive FIFO of retire records ({!Deferred.t}), threaded
    through their [next] link: a thread's retired list in every scheme,
    the batch an eject scan builds, and the runtime's deferred-op
    queue. Pushing, popping, splicing a chain and moving the safe
    entries of a scan to another queue allocate nothing.

    Each record carries the scheme's metadata (retire epoch, birth and
    retire interval, or the retired pointer's identity) and its
    operation. Access is owner-thread-only. *)

type t

val create : unit -> t

val push : t -> Deferred.t -> unit
(** Append one detached record (its link is [Nil]) at the tail. *)

val pop : t -> Deferred.t
(** Remove and return the head record, detached, or [Nil] when
    empty. *)

val size : t -> int
(** Entries currently held. *)

val is_empty : t -> bool

val due : t -> every:int -> bool
(** [due q ~every] is [true] on every [every]-th push since the last
    time it returned [true] (and resets the tally). Drives scan
    amortization. *)

val splice : t -> Deferred.t -> int
(** Append a whole [Nil]-terminated chain at the tail and return its
    length. *)

val take : t -> Deferred.t
(** Remove everything and return it as a [Nil]-terminated chain,
    oldest first. *)

val pop_prefix : t -> into:t -> ('env -> Deferred.t -> bool) -> 'env -> unit
(** [pop_prefix q ~into safe env] moves the longest prefix of entries
    (oldest first) that [safe env] accepts to the tail of [into]. For
    queues whose metadata is monotone (EBR retire epochs). [safe]
    should be a top-level function and [env] a value the scan already
    has, so that the scan builds no closure. *)

val filter_pop : t -> into:t -> ('env -> Deferred.t -> bool) -> 'env -> unit
(** [filter_pop q ~into safe env] moves every entry that [safe env]
    accepts (oldest first) to the tail of [into], unlinking them in
    place and preserving the order of the remainder. *)
