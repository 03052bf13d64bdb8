(** Hazard pointers (Michael 2004).

    A protected-{e pointer} scheme: each thread owns
    [slots_per_thread] announcement slots plus one reserved slot.
    {!try_acquire} claims a free slot and announces the pointer's
    identity in it; {!confirm} checks that a fresh read of the shared
    location still yields the announced identity (the classic
    announce-then-revalidate step that closes the read–reclaim race),
    re-announcing on mismatch. {!try_acquire} returns [None] when all
    non-reserved slots are held — the case that forces CDRC's snapshot
    slow path and explains RCHP's collapse on the range-query workload
    (paper Fig 11).

    Ejection scans every announcement slot and holds back each retired
    entry whose identity is currently announced; the scan is amortized
    over [cleanup_freq] retires. A pointer retired [n] times while
    announced is held back as [n] distinct entries, giving the
    multi-retire semantics of Def 3.3.

    Critical sections are no-ops. *)

include Smr_intf.S

val slots_per_thread : t -> int
(** Non-reserved slots per thread (the [K] of the HP-slot ablation). *)

val announced_count : t -> int
(** Number of currently non-null announcement slots (diagnostics). *)

val is_announced : t -> Ident.t -> bool
(** Whether some announcement slot currently carries the identity —
    what [eject]'s scan would hold back. *)
