(** The per-scheme instrumentation bundle (DESIGN.md §7).

    Every SMR scheme binds one of these at module-initialization time
    ([let om = Obs.Scheme_metrics.v name]) and calls the [on_*] hooks
    from its protocol entry points. The per-operation hooks
    ({!on_acquire}, {!on_slot_exhausted}, {!on_confirm_retry},
    {!on_retire}, {!on_eject}) are an inlined test of the telemetry
    flags around an out-of-line body: with telemetry disabled a hook
    costs one flag load and a branch at its call site and makes no
    call. None allocates per retire. *)

type t

val v : string -> t
(** [v scheme] binds the counter/histogram/event bundle under the
    [smr.<scheme>.] metric prefix. Registration is idempotent, so
    functor re-instantiation over one scheme shares one set of cells. *)

val on_acquire : t -> pid:int -> unit
(** One protected acquisition (announce/epoch-entry). Counter exact;
    trace event sampled 1-in-32. *)

val on_slot_exhausted : t -> pid:int -> unit
(** An acquire found no free announcement slot (HP/HE fallback). *)

val on_knob_ignored : t -> knob:string -> unit
(** A tuning knob was passed to [create] that this scheme never reads;
    recorded so callers find out from [stats] instead of silence. *)

val on_confirm_retry : t -> pid:int -> unit
(** An announce→re-validate round failed and retried. *)

val no_stamp : int
(** The stamp of a retire record that carries no latency sample. *)

val on_retire : t -> pid:int -> int
(** [on_retire t ~pid] counts the retirement, bumps the operation tick
    clock, and returns the stamp the scheme stores in the retire record
    ({!Smr.Deferred}): {!no_stamp} when disabled or unsampled, else the
    current tick tagged with this bundle, for {!on_reclaim}. *)

val on_reclaim : pid:int -> int -> unit
(** [on_reclaim ~pid stamp] records the tick-delta reclamation latency
    of a record that carries [stamp] (not {!no_stamp}) into its
    bundle's [smr.<scheme>.reclaim_latency]; the record's run calls it
    just before the operation, which it never reorders or changes. *)

val on_eject : t -> pid:int -> int -> unit
(** Call at every eject scan with the size of the batch about to be
    returned; counts the scan and the batch size (histogram +
    counter). *)

val on_abandon : t -> pid:int -> unit
(** A stalled thread's state was reaped on its behalf. *)
