(** Shared pool of retired entries orphaned by a crashed thread.

    Retired lists are owner-only, so when [abandon] reaps a crashed
    thread it cannot push the dead thread's entries into a survivor's
    queue directly. Instead they land here, batch-at-a-time
    (Hyaline-style adoption): any thread's next eject scan calls
    {!take_all} and folds the orphans through the scheme's usual safety
    check, re-queuing the ones still protected. The metadata travels
    with each entry so adopted garbage is held back exactly as long as
    home-grown garbage.

    Lock-free; [take_all] transfers ownership of the whole batch to the
    caller. *)

type 'meta t

val create : unit -> 'meta t

val put : 'meta t -> ('meta * Deferred.t) list -> unit
(** Add a batch of orphaned entries (no-op on [[]]). *)

val take_all : 'meta t -> ('meta * Deferred.t) list
(** Remove and return every pooled entry; the caller must either run
    or re-queue each one. *)

val adopt : 'meta t -> safe:('meta -> bool) -> Deferred.t list -> Deferred.t list
(** [adopt t ~safe ops] takes the pool, puts back the entries [safe]
    rejects, and returns [ops] followed by the ready entries' ops: an
    eject scan's adoption step. With nothing ready it returns [ops]
    itself, uncopied. *)

val size : 'meta t -> int
(** Current pool size (diagnostics; racy under concurrency). *)
