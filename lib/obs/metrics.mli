(** Counter/gauge registry (DESIGN.md §7).

    Counters are sharded across cache-line-strided plain cells, picked
    by [pid]; incrementing is two plain moves with no lock prefix.
    The contract is single writer per shard (dense benchmark pids);
    cross-domain reads are racy-but-untorn and [Domain.join] orders
    the post-run reads that matter. Gauges are single last-write-wins
    atomic cells, set by the sampler thread.

    Everything is gated on one runtime flag. {!add} and {!incr} are an
    inlined test of it around an out-of-line body: when disabled (the
    default) a call site costs one load and a branch, and makes no
    call. Registration is idempotent: {!counter} returns the
    existing counter for a seen name, so functor re-instantiation over
    the same scheme shares one set of cells. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

type counter
type gauge

val counter : string -> counter
(** Find-or-register the counter named [name]. *)

val gauge : string -> gauge
(** Find-or-register the gauge named [name]. *)

val add : counter -> pid:int -> int -> unit
(** Add [n] to [pid]'s shard; no-op while disabled. *)

val incr : counter -> pid:int -> unit

val total : counter -> int
(** Sum over all shards (racy-but-untorn reads). *)

val set_gauge : gauge -> int -> unit
(** Last-write-wins; no-op while disabled. *)

val gauge_value : gauge -> int

val find_counter : string -> counter option
(** Lookup without registering. *)

val value : string -> int
(** [value name] is the current total of counter [name]; 0 when the
    counter was never registered. *)

val dump : unit -> (string * int) list * (string * int) list
(** [(counters, gauges)], each name-sorted. *)

val reset : unit -> unit
(** Zero every cell but keep the registered names: counters are bound
    at module-initialization time, so forgetting them would orphan the
    callers' handles. *)
