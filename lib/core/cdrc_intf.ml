(** Public signature of an instantiated reference-counting library
    ({!Cdrc.Make}), independent of the underlying SMR scheme.

    Data structures, benchmarks, and examples are functors over this
    signature, so the same Harris–Michael list or Natarajan–Mittal tree
    runs on RCEBR, RCIBR, RCHyaline, RCHP, and RCHE unchanged — the
    paper's claim that the conversion is scheme-agnostic, enforced by
    the type checker. *)

module type S = sig
  val scheme_name : string

  exception Use_after_drop of string

  (** {1 Runtime and threads} *)

  type rt
  type thr

  val create :
    ?support_weak:bool ->
    ?epoch_freq:int ->
    ?cleanup_freq:int ->
    ?slots_per_thread:int ->
    max_threads:int ->
    unit ->
    rt
  (** A runtime for up to [max_threads] pids over a fresh instance of
      the scheme, with the scheme's knobs. It makes its own heap
      ({!heap}), which counts every control block it allocates:
      [live_objects] and [peak_objects] read it. [support_weak]
      (default [true]) enables weak pointers; a strong-only runtime
      disposes an object as soon as its strong count dies. *)

  val thread : rt -> int -> thr
  val heap : rt -> Simheap.t
  val max_threads : rt -> int

  val begin_critical_section : thr -> unit
  (** The opening half of {!critically}, for a section that no one body
      spans: it opens the thread's section, and raises
      [Invalid_argument] when that section is already open. *)

  val end_critical_section : thr -> unit
  (** The exit half of {!critically}: it ends the snapshots taken since
      {!begin_critical_section}, releasing the guards they still hold
      and giving back their counts, and closes the section. A snapshot
      left undropped is dead from then on, as one that escapes
      [critically] is. Unlike [critically], nothing closes the section
      if the code between the two halves raises. *)

  val critically : thr -> (unit -> 'r) -> 'r
  (** Run the body in the thread's critical section, which owns the
      snapshots taken inside it: on every exit, normal or exceptional,
      it releases the guards they still hold and gives back the counts
      of the counted ones. A snapshot that escapes the section is dead:
      its later [drop] raises [Use_after_drop]. Under a region scheme
      (EBR, Hyaline, the leaky baseline) the section itself protects a
      snapshot, which holds no guard. Sections do not nest:
      [Invalid_argument] when the thread's section is already open. *)

  val flush : thr -> unit
  (** Apply every deferred operation that is currently safe, plus the
      cascades it triggers: eject and drain repeat until the scheme
      yields nothing, so a chain of disposals (each releasing its
      successor's count) is followed to its end in one call. *)

  val quiesce : rt -> unit
  val live_objects : rt -> int
  val peak_objects : rt -> int

  val snapshot_stats : rt -> int * int
  (** (fast guard-protected snapshots, slow count-incrementing
      snapshots) since creation — the Fig 11 fallback mechanism. *)

  val retired_backlog : rt -> int
  (** Deferred strong decrements, weak decrements and disposals
      currently parked in the runtime's one acquire–retire instance,
      summed over all threads: those its scheme still holds, and those
      a scan released but an ordinary eject left queued for the thread's
      next one (an eject runs at most [max 1 (cleanup_freq / 4)]
      records). *)

  val stalled : rt -> bool
  (** Sample the runtime's reclamation-progress watchdog: [true] when
      the underlying scheme's frontier has been stuck while the
      deferred-operation backlog grew (see [Obs.Watchdog], which also
      records the verdict text). *)

  val abandon : rt -> pid:int -> unit
  (** Crash/stall recovery: release every resource [pid] holds in the
      runtime's acquire–retire instance — close its critical section,
      clear its announcement slots, and hand its retired-but-not-ejected
      entries, and the counts its counted (slow-path) snapshots still
      hold, to the survivors for adoption: the next [flush] or
      [quiesce] runs them. Call it exactly once per dead thread, and
      only after that thread has truly stopped calling into the runtime
      (it mutates owner-only state). *)

  (** {1 Pointer values} *)

  type 'a ptr
  (** Non-owning view: control block identity + mark bit. *)

  type 'a shared
  type 'a snapshot
  type 'a weak
  type 'a weak_snapshot
  type 'a asp
  type 'a awp

  module Ptr : sig
    type 'a t = 'a ptr

    val null : 'a t
    val is_null : 'a t -> bool

    val tag : 'a t -> int
    (** The 2-bit tag packed beside the pointer (bit 0 = Harris mark,
        bit 1 = a second structure-specific bit, e.g. the NM tree's). *)

    val with_tag : 'a t -> int -> 'a t
    val is_marked : 'a t -> bool
    val with_mark : 'a t -> bool -> 'a t
    val equal : 'a t -> 'a t -> bool
    val same_object : 'a t -> 'a t -> bool
    val strong_count : 'a t -> int
  end

  module Shared : sig
    type 'a t = 'a shared

    val null : unit -> 'a t
    val make : thr -> ?destroy:(thr -> 'a -> unit) -> 'a -> 'a t
    val is_null : 'a t -> bool
    val get : 'a t -> 'a
    val ptr : 'a t -> 'a ptr
    val copy : thr -> 'a t -> 'a t
    val drop : thr -> 'a t -> unit
    val use_count : 'a t -> int
    val weak_count : 'a t -> int
    val equal : 'a t -> 'a t -> bool

    val scoped : thr -> ?destroy:(thr -> 'a -> unit) -> 'a -> ('a t -> 'r) -> 'r
    (** Allocate, run, and drop on exit (exception-safe). *)
  end

  module Snapshot : sig
    type 'a t = 'a snapshot

    val null : unit -> 'a t
    val is_null : 'a t -> bool
    val is_marked : 'a t -> bool
    val tag : 'a t -> int

    val get : 'a t -> 'a
    (** The object's value. Like {!ptr}, {!to_shared} and
        {!is_protected}, it checks only that the snapshot was not
        dropped: a snapshot read after its section ended, whose guard or
        count is gone, is not detected, and its object may be freed.
        Only {!drop}, which takes the thread, checks the section. *)

    val ptr : ?tag:int -> 'a t -> 'a ptr
    (** Unchecked after the snapshot's section ended, as {!get}. *)

    val drop : thr -> 'a t -> unit

    val to_shared : thr -> 'a t -> 'a shared
    (** Unchecked after the snapshot's section ended, as {!get}. *)

    val use_count : 'a t -> int

    val is_protected : 'a t -> bool
    (** Unchecked after the snapshot's section ended, as {!get}: it
        reports the guard or count the snapshot had. *)
  end

  module Asp : sig
    type 'a t = 'a asp

    val make_null : unit -> 'a t
    val make : thr -> 'a ptr -> 'a t
    val unsafe_ptr : 'a t -> 'a ptr
    val load : thr -> 'a t -> 'a shared
    val store : thr -> 'a t -> 'a ptr -> unit
    val compare_and_swap : thr -> 'a t -> expected:'a ptr -> desired:'a ptr -> bool
    val try_mark : thr -> 'a t -> expected:'a ptr -> bool
    val get_snapshot : thr -> 'a t -> 'a snapshot

    val with_snapshot : thr -> 'a t -> ('a snapshot -> 'r) -> 'r
    (** Take a snapshot, run, and drop on exit (exception-safe). *)

    val clear : thr -> 'a t -> unit
  end

  module Weak : sig
    type 'a t = 'a weak

    val null : unit -> 'a t
    val of_shared : thr -> 'a shared -> 'a t
    val of_snapshot : thr -> 'a snapshot -> 'a t
    val is_null : 'a t -> bool
    val expired : 'a t -> bool
    val ptr : 'a t -> 'a ptr
    val lock : thr -> 'a t -> 'a shared
    val copy : thr -> 'a t -> 'a t
    val drop : thr -> 'a t -> unit
    val weak_count : 'a t -> int
  end

  module Weak_snapshot : sig
    type 'a t = 'a weak_snapshot

    val null : unit -> 'a t
    val is_null : 'a t -> bool
    val is_marked : 'a t -> bool
    val tag : 'a t -> int

    val get : 'a t -> 'a
    (** As {!Snapshot.get}: reading a weak snapshot after its section
        ended is not detected. *)

    val ptr : ?tag:int -> 'a t -> 'a ptr
    val to_shared : thr -> 'a t -> 'a shared
    val drop : thr -> 'a t -> unit
    val is_protected : 'a t -> bool
  end

  module Awp : sig
    type 'a t = 'a awp

    val make_null : unit -> 'a t
    val make : thr -> 'a ptr -> 'a t
    val unsafe_ptr : 'a t -> 'a ptr
    val store : thr -> 'a t -> 'a ptr -> unit
    val load : thr -> 'a t -> 'a weak
    val compare_and_swap : thr -> 'a t -> expected:'a ptr -> desired:'a ptr -> bool
    val get_snapshot : thr -> 'a t -> 'a weak_snapshot
    val clear : thr -> 'a t -> unit
  end
end
