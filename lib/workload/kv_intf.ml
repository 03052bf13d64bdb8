(** Interface of the sharded KV serving store (DESIGN.md §12).

    The service is a KV generalization of {!Ds.Hash_table_rc}: each
    shard is an independent RC runtime holding a bucket array of
    Harris–Michael chains whose nodes carry the key plus an atomic
    {e value slot} — an [R.asp] pointing at an immutable value box
    [(value, expiry)]. Every state change of a mapping is a single CAS
    or mark on that slot, so the whole KV history linearizes on slot
    operations:

    + {b put on a live entry}: CAS slot [old → new] — the old box's
      decrement is deferred through the scheme under test (the paper's
      core mechanism, now exercised by overwrite churn).
    + {b remove / TTL expiry}: mark the slot ([try_mark]) — a marked
      slot is a tombstone; the marker then physically unlinks the node
      Harris-style (mark [next], CAS the predecessor).
    + {b put on an absent/tombstoned key}: insert a fresh node {e
      before} the first node with key ≥ k, so a live node always
      precedes any same-key tombstones and searches (first key ≥ k)
      stay correct.

    All core operations take an explicit logical [~now] so tests and
    exploration schedules are deterministic; the service-level clock
    ([now]/[tick]) is a convenience for the runner only. *)

(** Operation-outcome counters, summed over threads. The accounting
    identities tested in [test/test_kv.ml] (at quiescence, after an
    [expire_sweep]):

    - node identity: [puts_new = size + removes + expiries] — every
      node dies by exactly one slot mark, counted by the thread that
      won the mark;
    - box identity: every installed value box is retired by exactly one
      of overwrite, expired overwrite, remove, or expiry, so
      [installed - size = overwrites + expired_overwrites + removes
      + expiries] where [installed = puts_new + overwrites +
      expired_overwrites]. *)
type counters = {
  puts_new : int;  (** puts that created a fresh node *)
  overwrites : int;  (** puts that replaced a live box *)
  expired_overwrites : int;  (** puts that replaced an expired box *)
  removes : int;  (** removes that killed a live entry *)
  expiries : int;  (** slot marks claimed on expired entries *)
  gets_hit : int;
  gets_miss : int;
}

module type S = sig
  val name : string
  (** Underlying RC scheme name ("RCEBR" … "RCNone"). *)

  type t
  type ctx

  val create :
    ?shards:int ->
    ?buckets:int ->
    ?slots_per_thread:int ->
    ?epoch_freq:int ->
    max_threads:int ->
    unit ->
    t
  (** [shards] (default 4) is rounded up to a power of two; [buckets]
      is per shard. All shards share one {!Simheap} so [live_objects]
      and leak accounting are service-global. *)

  val shard_count : t -> int
  val shard_of_key : t -> int -> int
  val ctx : t -> int -> ctx

  (** {1 Logical time} *)

  val now : t -> int
  val tick : t -> int
  (** Advance the service clock by one tick; returns the new time. *)

  (** {1 Core operations} *)

  val get : ctx -> now:int -> int -> int option
  (** [None] for absent, tombstoned, or expired keys — an expired
      entry is never served; the reader lazily claims its expiry. *)

  val put : ctx -> now:int -> ?ttl:int -> int -> int -> bool
  (** [put c ~now ?ttl k v] maps [k] to [v] (until [now + ttl] if
      given). Returns [true] iff a {e live} entry was overwritten. *)

  val remove : ctx -> now:int -> int -> bool
  (** [true] iff a live entry was removed; removing an expired entry
      claims the expiry and returns [false]. *)

  val scan : ctx -> now:int -> int -> int -> int
  (** [scan c ~now lo hi]: count of live, unexpired keys in
      [\[lo, hi)], across all shards. *)

  val expire_sweep : ctx -> now:int -> int
  (** Claim and unlink every expired entry; returns the number
      expired — the background TTL-churn primitive. *)

  val flush : ctx -> unit

  (** {1 Accounting and observability} *)

  val size : t -> now:int -> int
  val live_objects : t -> int
  val peak_objects : t -> int
  val reset_peak : t -> unit

  val retired_backlog : t -> int
  (** Deferred decrements/disposals parked across all shards. *)

  val counters : t -> counters

  val teardown : t -> unit
  (** Clear every bucket and quiesce every shard; afterwards
      [live_objects t = 0] on a leak-free run. *)
end

(** [identity_deltas c ~size] is [(node, box)]: how far [c] is from
    each accounting identity above, given the store's [size] at
    quiescence after an [expire_sweep]. [(0, 0)] iff both hold. *)
let identity_deltas c ~size =
  let retired = c.overwrites + c.expired_overwrites + c.removes + c.expiries in
  let installed = c.puts_new + c.overwrites + c.expired_overwrites in
  (c.puts_new - (size + c.removes + c.expiries), installed - size - retired)
