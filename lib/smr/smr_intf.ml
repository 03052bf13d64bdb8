(** Common interface over manual SMR schemes (paper §2, §3.2).

    Every scheme — hazard pointers, pass-the-buck, EBR, IBR, Hyaline,
    hazard eras and the leaky baseline — implements this signature;
    the generalized acquire–retire layer (Fig 2) and the manual data
    structures are functors over it.

    {2 The acquire protocol}

    C++ [acquire] takes a [T**] and reads the location internally; our
    schemes are type-erased, so the {e typed} read stays with the
    caller and the scheme exposes a two-phase protocol:

    {[
      let v = Sched.Atomic.get loc in
      let g = try_acquire s ~pid (ident v) in    (* or acquire for the reserved slot *)
      let rec settle v =
        if confirm s ~pid g (ident v) then (v, g)   (* v is now protected *)
        else settle (Sched.Atomic.get loc)
      in
      settle (Sched.Atomic.get loc)
    ]}

    [try_acquire] performs the initial announcement (pointer for HP,
    era for HE, nothing for the region schemes); [confirm g id] checks
    that the announcement covers the {e most recent} read — re-reading
    between announce and confirm is what closes the read–reclaim race —
    and re-announces on failure so the caller can simply re-read and
    confirm again. For EBR and Hyaline, [confirm] is constantly [true]
    and the protocol degenerates to a single load, which is exactly why
    region schemes are fast (paper §2). This protocol subsumes the
    retry loops of Fig 4 (IBR) and of classic HP verbatim.

    {2 Retire / eject}

    [retire] records a deferred operation as a {!Deferred.t} retire
    record: one block naming the object (identity and birth tag), the
    operation (a shared run function and its argument: a [free] for
    manual use, a reference-count decrement for automatic use — the
    generalization at the heart of the paper) and an intrusive link.
    The run function receives the pid of the thread that runs it.
    [eject] returns the records that are no longer protected as a
    [Nil]-terminated chain threaded through that link; it amortizes
    internally, so most calls return [Nil]. Neither allocates. Callers
    must run the returned operations {e outside} the scheme (never
    reentrantly), which is how the paper avoids recursive ejects
    (§3.2); the [Acquire_retire] layer provides the drain queue that
    enforces this. A pointer may be retired several times before being
    ejected the same number of times (Def 3.3): every scheme here
    tracks retire {e records}, not unique pointers, so this needs no
    special casing. Every scheme but Hyaline (one global batch list)
    delegates both to a {!Reclaimer}, keeping only its [meta] and its
    [safe] predicate.

    {2 Threading}

    [pid] ∈ [0, max_threads) names the calling thread; per-thread state
    (slots, announcements, retired lists) is padded against false
    sharing. A given [pid]'s operations must come from one thread at a
    time. *)

module type S = sig
  type t
  (** Scheme instance state. *)

  val name : string
  (** Short display name, e.g. ["EBR"]. *)

  val is_protected_region : bool
  (** True for region schemes (EBR, IBR, Hyaline, HE-partially): their
      [confirm] never fails after the epoch stabilizes and [try_acquire]
      never exhausts. Used by reporting only. *)

  val confirm_is_trivial : bool
  (** [true] when [confirm] is constantly [true] (EBR, Hyaline, the
      leaky baseline): the critical section alone protects every read,
      so callers can skip the announce-settle re-read entirely — the
      single-load fast path that makes region schemes cheap. *)

  val requires_validation : bool
  (** Whether traversals must revalidate link-level reachability
      (Michael's [*prev == cur] check) before trusting a protected
      node. [false] only for EBR and Hyaline, whose ejection blocks
      {e everything} retired after the oldest active critical section
      began — that global property makes even frozen marked-chain edges
      safe to follow. IBR, HE, and HP only protect objects whose
      retirement interval meets the announcement, so a node reached
      through the frozen edge of an already-unlinked node may already
      be reclaimed; structures that cannot validate (the NM tree) are
      unsafe under these schemes, exactly as the paper reports
      (§5.1). *)

  type guard = int
  (** Guards are small integers (slot indices or 0 for region schemes).
      Negative guards never escape. *)

  val create :
    ?epoch_freq:int -> ?cleanup_freq:int -> ?slots_per_thread:int -> max_threads:int -> unit -> t
  (** [create ~max_threads ()] builds an instance supporting pids
      [0 .. max_threads-1]. All knobs share the documented
      {!Knobs} defaults and are validated uniformly: a value [<= 0]
      raises [Invalid_argument] in every scheme, even for knobs that
      scheme ignores (the misuse is additionally recorded as a
      [knob_ignored] scheme counter).
      - [epoch_freq]: allocations between global epoch/era advances
        (default {!Knobs.default_epoch_freq} = 40 for every
        epoch-clocked scheme; ignored by HP, PTB, Hyaline, Leaky).
      - [cleanup_freq]: retires between eject scans (default
        {!Knobs.default_cleanup_freq} = 64).
      - [slots_per_thread]: announcement slots for HP/HE/PTB (default
        {!Knobs.default_slots_per_thread} = 8), excluding the reserved
        slot; ignored by region schemes.

      The knobs are fixed for the instance's lifetime. *)

  val max_threads : t -> int

  val begin_critical_section : t -> pid:int -> unit
  val end_critical_section : t -> pid:int -> unit

  val alloc_hook : t -> pid:int -> int
  (** Call on every managed allocation; returns the birth tag to store
      with the object (the current epoch for IBR/HE; 0 for others).
      Advances the global epoch every [epoch_freq] calls. *)

  val try_acquire : t -> pid:int -> Ident.t -> guard option
  (** Begin protecting a pointer using a free slot. [None] = slots
      exhausted (HP/HE only). The protection is not valid until a
      subsequent [confirm] returns [true]. *)

  val acquire : t -> pid:int -> Ident.t -> guard
  (** Like {!try_acquire} but uses the per-thread reserved slot; never
      fails. At most one reserved acquire may be active per thread
      (Def 3.2 (3)). *)

  val confirm : t -> pid:int -> guard -> Ident.t -> bool
  (** [confirm t ~pid g id]: [true] iff the value whose identity is
      [id], read {e after} the guard's last announcement, is protected.
      On [false] the guard has been re-announced for [id] (HP) or the
      current epoch (IBR/HE); re-read and confirm again. *)

  val release : t -> pid:int -> guard -> unit
  (** End the protection of [g]. Guards from [try_acquire] return to
      the free pool; the reserved guard becomes reusable. *)

  val retire : t -> pid:int -> Deferred.t -> unit
  (** Defer the record's operation on the object it names (its
      identity, and the birth tag from {!alloc_hook}) until no acquire
      active at this call still protects it. The record must be
      detached; the scheme owns it until [eject] or [drain_all] returns
      it, and writes its [meta] and telemetry stamp. *)

  val eject : ?force:bool -> t -> pid:int -> Deferred.t
  (** The records now safe to run, as a chain. Amortized: most calls
      return [Nil] without scanning; pass [~force:true] to scan
      unconditionally (used by flush/teardown paths). Run them outside
      the scheme. *)

  val retired_count : t -> pid:int -> int
  (** Number of this thread's retired-but-not-ejected entries
      (diagnostics / memory accounting). The counts over every pid sum
      to the instance's backlog: a scheme whose entries are global
      (Hyaline) reports them all under pid 0. *)

  val abandon : t -> pid:int -> unit
  (** Crash recovery: release every resource held by [pid] on its
      behalf — close its critical section, clear its announcement
      slots, and hand its retired-but-not-ejected entries to the
      survivors for adoption (Hyaline-batch style: they land in a
      shared orphan pool that any thread's next [eject] scan drains,
      still subject to the scheme's safety check).

      Call it exactly once per crashed thread, and only after that
      thread has truly stopped calling into the scheme — [abandon]
      mutates owner-only state. Afterwards the pid's slots are free
      again, so a supervisor may recycle the pid for a replacement
      thread. Without [abandon], a crashed thread permanently pins the
      garbage its announcements protect — for EBR, {e all} garbage
      retired after its critical section began (§2's unbounded case);
      for HP/IBR/HE a bounded amount. *)

  val reclamation_frontier : t -> int option
  (** The oldest announced epoch/era still blocking reclamation, for
      schemes with a global clock (EBR: min announced epoch; IBR: min
      announced interval start; HE: min announced era — each falling
      back to the current epoch/era when nothing is announced). [None]
      for schemes without one (HP, PTB, Hyaline, the leaky baseline).
      A frontier that stops advancing while retired counts grow is the
      signature of a stalled thread — the [Acquire_retire] watchdog
      reports exactly that. *)

  val drain_all : t -> Deferred.t
  (** Return {e all} pending records from all threads, as a chain.
      Only sound at quiescence: no concurrent scheme calls, and no guard
      or critical section in use. A section that a pid stopped for good
      left open (a stall whose exit never replays) holds nothing back:
      its records are returned too. Used at teardown and by the
      leak-freedom tests. *)
end
