(** Generalized acquire–retire (paper §3.1, Fig 2): the one
    reclamation runtime.

    This layer packages any manual SMR scheme as the paper's
    generalized interface: [alloc] / [retire] / [eject] plus
    protection. The manual data structures run on it, and so does CDRC
    ({!Cdrc.Make} instantiates it once per runtime), so the layering is
    data structure → CDRC → acquire–retire → scheme, and draining,
    flushing, backlog accounting and the watchdog exist once, here.

    Differences from Fig 2, forced by OCaml and documented in
    DESIGN.md: [alloc] wraps an existing value in an abstract
    {!Make.managed} (carrying the birth tag and the simulated-heap
    block) rather than calling a constructor; [eject] runs what the
    scheme releases through the pid's deferred-op queue, never
    reentrantly (§3.2), and an ordinary eject runs a bounded slice of
    that queue and leaves the rest for the pid's next eject, where
    Fig 2's hands back one pointer per call; and protection is
    acquired inside a section, whose exit releases every guard still
    held. A {!Make.scope} is a section whose rank-2 body type keeps every
    guard and every unlink witness from outliving it, and whose guards
    and witnesses carry the manual structures' life-cycle obligations
    (DESIGN.md §3); CDRC's [critically] is another, whose snapshots,
    over a scheme that takes guards, keep theirs after the call that
    takes them. Both protect through one announce/confirm loop, behind
    three named entries: a fresh slot and the reserved slot for CDRC
    ({!Make.acquire_fresh}, {!Make.acquire_reserved}), and a slot of the
    scope's own for {!Make.Scope.protect}. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Smr_impl = S

  (* A pid's protection state, preallocated so that neither opening a
     section nor protecting a pointer allocates bookkeeping. Bit [v] of
     [scoped] is set while the pid's section holds its guard slot [v]:
     [taken.(v)] is the scheme guard behind it, and [gens.(v)] the
     slot's generation, bumped at each release. [last] is the guard slot
     the pid's last protect took. The owner writes the record on every
     protect, so the [pad_*] fields give it a cache line of its own. *)
  type scope_state = {
    smr_s : S.t;
    pid : int;
    mutable opened : bool;
    mutable last : int;
    mutable scoped : int;
    taken : S.guard array;
    gens : int array;
    pad_0 : int;
    pad_1 : int;
    pad_2 : int;
    pad_3 : int;
    pad_4 : int;
  }

  (** The guard slot of a failed fresh-slot announcement. *)
  let no_guard = -1

  type t = {
    smr : S.t;
    heap : Simheap.t;
    (* Per-pid deferred-op queues, threaded through the retire records'
       links, and their reentrancy latches, owner pid only, like the
       scheme's retired lists. *)
    pending : Smr.Retire_queue.t array;
    draining : bool array;
    fresh : int array; (* records [run] put at the head of the queue, not yet run *)
    slice : int; (* records an ordinary eject runs *)
    abandoned : Smr.Orphanage.t; (* queued records of abandoned pids *)
    scopes : scope_state array;
    wd : Obs.Watchdog.t; (* sampled by [stalled] *)
  }

  (* AR-level eject batch sizes: unlike the scheme-level histogram this
     sees the batches the runtime runs, i.e. after any fault-injection
     wrapper has had its say. *)
  let eject_batch_h = Obs.Histo.histo ("ar." ^ String.lowercase_ascii S.name ^ ".eject.batch_size")

  (* The records each ordinary eject that ran its queue left there for
     the pid's next one. *)
  let eject_carried_h = Obs.Histo.histo ("ar." ^ String.lowercase_ascii S.name ^ ".eject.carried")

  (** A runtime over a fresh instance of the scheme, with the scheme's
      knobs, and a heap of its own that counts every block allocated
      through it ({!heap}). *)
  let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
    (match slots_per_thread with
    | Some k when k >= Sys.int_size ->
        invalid_arg "Acquire_retire.create: more slots per thread than a scope's bitmask holds"
    | _ -> ());
    let smr = S.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () in
    {
      smr;
      heap = Simheap.create ~name:("ar-" ^ S.name) ();
      pending = Array.init max_threads (fun _ -> Smr.Retire_queue.create ());
      draining = Array.make max_threads false;
      fresh = Array.make max_threads 0;
      slice =
        max 1 (Option.value cleanup_freq ~default:Smr.Knobs.default_cleanup_freq / 4);
      abandoned = Smr.Orphanage.create ();
      scopes =
        Array.init max_threads (fun pid ->
            {
              smr_s = smr;
              pid;
              opened = false;
              last = no_guard;
              scoped = 0;
              taken = Array.make Sys.int_size no_guard;
              gens = Array.make Sys.int_size 0;
              pad_0 = 0;
              pad_1 = 0;
              pad_2 = 0;
              pad_3 = 0;
              pad_4 = 0;
            });
      wd = Obs.Watchdog.create ~scheme:S.name ();
    }

  let heap t = t.heap
  let max_threads t = S.max_threads t.smr

  (** The birth tag of an object allocated now: what [alloc] stores, and
      what a caller that allocates its own records (CDRC's control
      blocks) puts in their retire records ({!Smr.Deferred.make}). *)
  let birth t ~pid = S.alloc_hook t.smr ~pid

  (* The announce/confirm loop of [Smr.Smr_intf], the only one in the
     stack: confirm [g] against [v], re-reading [cell] after each miss,
     and return the value [g] covers. *)
  let rec settle (smr : Smr_impl.t) ~pid ~ident cell g v =
    if S.confirm smr ~pid g (ident v) then v
    else settle smr ~pid ~ident cell g (Sched.Atomic.get cell)

  (* [settle] from the re-read of [cell] that follows an announcement
     of [id], the identity of [v]: a re-read that finds [v] again is
     confirmed against [id] without naming it anew. *)
  let[@inline] settle_reread s ~ident cell g v id =
    let v' = Sched.Atomic.get cell in
    if v' != v then settle s.smr_s ~pid:s.pid ~ident cell g v'
    else if S.confirm s.smr_s ~pid:s.pid g id then v
    else settle s.smr_s ~pid:s.pid ~ident cell g (Sched.Atomic.get cell)

  (* Release the guard slots set in [mask], from slot [v] up, each
     holding the scheme guard [taken.(v)]. *)
  let rec release_scoped s mask v =
    if mask <> 0 then begin
      if mask land 1 <> 0 then S.release s.smr_s ~pid:s.pid s.taken.(v);
      release_scoped s (mask lsr 1) (v + 1)
    end

  (** {2 Protection sections}

      [open_section t ~pid] opens the pid's critical section, and
      [close_section t ~pid] releases each guard the pid still holds
      exactly once, then closes it. A {!Scope.scope} is one such section
      around its body; CDRC's [critically] is another, whose snapshots
      hold guards taken by {!acquire_fresh} and {!acquire_reserved}.
      Sections do not nest: closing an inner one would end the critical
      section (under EBR and IBR, the announcement) that the outer body
      still relies on, so opening a section for a pid whose section is
      open raises [Invalid_argument]. *)

  let open_section t ~pid =
    let s = t.scopes.(pid) in
    if s.opened then invalid_arg "Acquire_retire: the pid's section is already open";
    S.begin_critical_section t.smr ~pid;
    s.opened <- true

  (* Marks the section closed and clears the mask before releasing, so
     a release that raises can neither make a guard be released twice
     nor keep the pid's next section from opening. *)
  let close s =
    let scoped = s.scoped in
    s.scoped <- 0;
    s.opened <- false;
    release_scoped s scoped 0;
    S.end_critical_section s.smr_s ~pid:s.pid

  let close_section t ~pid = close t.scopes.(pid)

  (** {2 Protection}

      Three named entries to the one announce/confirm loop ([settle]):
      {!acquire_fresh} and {!acquire_reserved} for CDRC's snapshots and
      loads, whose guards outlive the call that takes them, and the
      scope's {!Scope.protect}. Each leaves the guard slot it took in the
      pid state's [last] field ({!no_guard} when the fresh slots ran
      out): returning it beside the value would allocate a pair per
      snapshot or hop. Each holds that slot in the section's mask before the
      confirm loop runs, so a confirm that raises leaves it for the
      section's exit. The slot is the scheme guard's own, unless the
      section already holds that guard: region schemes and IBR hand
      every protect guard 0. Then a scope takes the lowest free slot, so
      that each guard is released and checked alone ({!no_guard} when
      none is free, which only such a scheme, whose section protects the
      read anyway, can reach), and CDRC holds the guard once, so a pid
      can hold any number of them. *)

  let rec first_clear mask v = if mask land 1 = 0 then v else first_clear (mask lsr 1) (v + 1)

  (* Hold the scheme guard [g] in the pid section's guard slot [v], and
     return the slot: {!no_guard} for {!no_guard} and past the mask. *)
  let[@inline] hold s v g =
    if v = no_guard || v >= Sys.int_size then no_guard
    else begin
      s.scoped <- s.scoped lor (1 lsl v);
      s.taken.(v) <- g;
      v
    end

  (* Announce [id] on a fresh slot: the scheme guard, {!no_guard} when
     none was left. *)
  let[@inline] fresh s id =
    match S.try_acquire s.smr_s ~pid:s.pid id with Some g -> g | None -> no_guard

  (** [acquire_fresh s ~ident cell] announces on a fresh slot and returns
      [cell]'s value that the guard in [s.last] covers: announce a read,
      confirm a re-read. A guard the section already holds is held once
      more in the same slot, and released by the first drop. CDRC calls
      it, and {!acquire_reserved}, only over a scheme whose confirm is
      not trivial: a region scheme's section protects the read itself. *)
  let acquire_fresh s ~ident cell =
    let v = Sched.Atomic.get cell in
    let id = ident v in
    let g = fresh s id in
    s.last <- hold s g g;
    if g = no_guard then v else settle_reread s ~ident cell g v id

  (** [acquire_reserved s ~ident cell] is {!acquire_fresh} on the pid's
      reserved slot: it never fails, and the pid holds at most one such
      guard at a time. *)
  let acquire_reserved s ~ident cell =
    let v = Sched.Atomic.get cell in
    let id = ident v in
    let g = S.acquire s.smr_s ~pid:s.pid id in
    s.last <- hold s g g;
    settle_reread s ~ident cell g v id

  (* A scope's slot for the scheme guard [g]: its own, or the lowest
     free one when the section already holds [g]. *)
  let own_slot s g =
    if g <> no_guard && s.scoped land (1 lsl g) <> 0 then first_clear s.scoped 0 else g

  (* The scope's entry, behind {!Scope.protect}: {!acquire_fresh} on a
     slot of the scope's own. Under a trivial confirm the section
     protects the read, so it announces nothing to confirm and reads
     the cell once. Outside the pid's section it raises
     [Invalid_argument]: nothing would protect the read, and no exit
     would release the guard. *)
  let acquire_own s ~ident cell =
    if not s.opened then invalid_arg "Acquire_retire.protect: the pid's section is closed";
    if S.confirm_is_trivial then begin
      let g = fresh s Smr.Ident.null in
      s.last <- hold s (own_slot s g) g;
      Sched.Atomic.get cell
    end
    else
      let v = Sched.Atomic.get cell in
      let id = ident v in
      let g = fresh s id in
      s.last <- hold s (own_slot s g) g;
      if g = no_guard then v else settle_reread s ~ident cell g v id

  (** [acquire_seen s ~ident cell v] protects [v], a value already read
      from [cell] and protected by another guard, on a fresh slot held
      as {!acquire_fresh} holds it: [v] is announced and confirmed as read,
      and [cell] is re-read only after a miss — how Fig 9's weak
      snapshot protects a disposal. *)
  let acquire_seen s ~ident cell v =
    let g = fresh s (ident v) in
    s.last <- hold s g g;
    if g <> no_guard then ignore (settle s.smr_s ~pid:s.pid ~ident cell g v)

  (** Release the guard slot [v] if the pid's section still holds it: a
      guard held once for two protections is released by the first. *)
  let release_slot s v =
    let bit = 1 lsl v in
    if s.scoped land bit <> 0 then begin
      s.gens.(v) <- s.gens.(v) + 1;
      s.scoped <- s.scoped lxor bit;
      S.release s.smr_s ~pid:s.pid s.taken.(v)
    end

  (* The static run function of a retire record that reclaims a block. *)
  let free_block _pid block = Simheap.free block

  (** {2 Managed objects and protection scopes}

      The way a manual data structure allocates, reads and retires a
      node, carrying the three pointer life-cycle obligations of manual
      SMR (Meyer–Wolff) in its types:

      - {e Release what you announced}: [scope t ~pid { f } a b] opens
        the pid's section, runs [f s a b] on a fresh scope [s], and on
        every exit — normal or exceptional — closes the section,
        releasing each guard still held exactly once. The body's type
        [{ f : 's. 's scope -> 'a -> 'b -> 'r }] is rank-2: [f] must
        work for every ['s], so ['s] cannot occur in ['r], and neither a
        guard, nor an
        unlink witness, nor anything typed by its scope can be returned
        from the body or stored where the body's caller sees it
        (test/scope_fixtures pins this with programs that must fail to
        compile). Scopes do not nest ({!open_section}).
      - {e Announce before you dereference}: a {!managed} is abstract,
        and {!get} reads it only through a guard of the scope that
        {!protect}ed it. A guard is one of the scope's guard slots
        packed with the slot's generation, which {!release} and
        {!retire_free} bump: a [get] or [release] through a released
        guard raises [Invalid_argument] instead of reading memory that
        may be freed, or dropping a protection taken since.
      - {e Retire only what you unlinked}: {!retire_free} takes an
        {!unlinked} witness, which only {!unlink}'s own successful CAS
        returns.

      Three reads without a live guard are legal, and each is named:
      a chain excised under one witness ({!excised}); a node no other
      pid can reach, because the pid allocated it and has not published
      it or the structure is quiescent ({!quiescent}, {!discard}); and
      NM-tree's over-budget fallback, the paper's Fig 11 behaviour
      ({!get_unguarded}). *)
  module Scope : sig
    type +'a managed
    (** A value under acquire–retire management. [alloc] is part of the
        Fig 2 interface because IBR and HE must tag each object with a
        birth epoch at allocation time. *)

    type 's scope
    type 's guard
    type ('s, 'a) unlinked
    type ('a, 'b, 'r) body = { f : 's. 's scope -> 'a -> 'b -> 'r } [@@unboxed]
    (** A section body over the operation's context ['a] and its input
        ['b]: [{ f = op }] of a top-level [op] allocates nothing. *)

    val alloc : t -> pid:int -> 'a -> 'a managed
    val ident : 'a managed -> Smr.Ident.t
    val birth_tag : 'a managed -> int
    val is_live : 'a managed -> bool

    val discard : 'a managed -> unit
    (** Free [m] now, outside retirement: only for a node no other pid
        can reach — one the pid allocated and never published, one of a
        quiescent structure being torn down, or one whose own retire
        record is running. *)

    val quiescent : 'a managed -> 'a
    (** [m]'s value with no guard, for the same nodes as {!discard}:
        a quiescent structure's [size] and [teardown] walks. *)

    val get_unguarded : 'a managed -> 'a
    (** [m]'s value, checked live, with no guard: NM-tree's over-budget
        HP fallback (paper Fig 11), whose use-after-frees the tree
        counts, and its never-retired root sentinel. No other structure
        may call it (tools/ci.sh). *)

    val scope : t -> pid:int -> ('a, 'b, 'r) body -> 'a -> 'b -> 'r
    (** [scope t ~pid body a b] runs [body.f s a b] in the pid's section.
        A body that takes more arguments returns a partial application,
        whose rest would run after the section closed: its first
        {!protect} raises [Invalid_argument]. *)

    val protect : 's scope -> ident:('v -> Smr.Ident.t) -> 'v Sched.Atomic.t -> 'v
    (** The two-phase announce/confirm protocol of [Smr.Smr_intf] on
        [cell]: [ident] (a top-level projection, so the call allocates
        no closure) names what the scheme announces and validates. It
        returns the value and leaves the guard that covers it to
        {!guard}, so that it allocates nothing. When the announcement
        slots ran out, the value is [cell]'s, unprotected, and the guard
        is {!unguarded}; what to do then is the caller's policy. After
        the scope's section closed it raises [Invalid_argument]. *)

    val guard : 's scope -> 's guard
    (** The guard the scope's last {!protect} took. *)

    val unguarded : 's guard
    (** The guard of a failed protect: {!get} through it raises, and
        {!release} and {!retire_free} ignore it. *)

    val guarded : 's guard -> bool
    (** Whether the protect that took the guard got a slot. *)

    val get : 's scope -> 's guard -> 'a managed -> 'a
    (** [m]'s value, read through [g], the guard that protects it.
        Raises [Invalid_argument] if [g] was released (or is
        {!unguarded}), and [Simheap.Use_after_free] if [m] was freed. *)

    val release : 's scope -> 's guard -> unit
    (** Release before scope exit, where the order against a retire or
        an eject matters, or to free a slot mid-traversal. The guard
        goes stale: releasing it again, or a {!get} through it, raises
        [Invalid_argument], even after a later [protect] has reused its
        slot — that protection stays held. *)

    val cas : eq:('v -> 'v -> bool) -> 'v Sched.Atomic.t -> expected:'v -> desired:'v -> bool
    (** The manual structures' one logical CAS: swing [cell] to
        [desired] if it holds a value [eq] to [expected]. Their links
        are immutable records, so an equal link may be another block:
        the physical CAS is on the value read, retried while the cell
        still holds an equal one. *)

    val unlink :
      's scope ->
      eq:('v -> 'v -> bool) ->
      'v Sched.Atomic.t ->
      expected:'v ->
      desired:'v ->
      'a managed ->
      ('s, 'a) unlinked option
    (** [unlink s ~eq cell ~expected ~desired victim] is {!cas}, and on
        success returns the witness that [victim], the node [expected]
        links to, is unlinked. Structural pre-checks stay with the
        caller. *)

    val retire_free : 's scope -> ('s, 'a) unlinked -> 's guard -> unit
    (** Release [g], the guard protecting the witness's victim (or
        {!unguarded}), then retire the victim, the deferred operation
        being its reclamation. *)

    val excised : ('s, 'a) unlinked -> 'a managed -> 'a
    (** [m]'s value, checked live: [m] is a node of the chain that the
        witness's CAS excised together with its victim, so only this pid
        retires it. *)

    val retire_excised : 's scope -> ('s, 'a) unlinked -> 'a managed -> unit
    (** Retire [m], a node of the chain excised under the witness
        (the victim included), holding no guard on it. *)
  end = struct
    type 'a managed = { value : 'a; birth : int; block : Simheap.block }
    type 's scope = scope_state
    type 's guard = int
    type ('s, 'a) unlinked = 'a managed
    type ('a, 'b, 'r) body = { f : 's. 's scope -> 'a -> 'b -> 'r } [@@unboxed]

    (* The hook runs strictly before the heap allocation: if it raises
       (fault injection crashing the thread), no block exists yet and
       nothing can leak. *)
    let alloc t ~pid value =
      let birth = birth t ~pid in
      let block = Simheap.alloc t.heap in
      { value; birth; block }

    let ident (m : _ managed) = Smr.Ident.of_val m
    let birth_tag m = m.birth
    let is_live m = Simheap.is_live m.block
    let discard m = Simheap.free m.block
    let quiescent m = m.value

    let get_unguarded m =
      Simheap.check_live m.block;
      m.value

    let scope t ~pid body a b =
      open_section t ~pid;
      let s = t.scopes.(pid) in
      match body.f s a b with
      | v ->
          close s;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          close s;
          Printexc.raise_with_backtrace e bt

    (* A guard is [gens.(v) lsl gen_shift lor v] for the guard slot [v]
       that holds it. *)
    let gen_shift = 6
    let slot_mask = (1 lsl gen_shift) - 1
    let unguarded = no_guard
    let guarded g = g <> unguarded

    let live s g = g >= 0 && s.gens.(g land slot_mask) = g lsr gen_shift

    let get s g m =
      if not (live s g) then invalid_arg "Acquire_retire.get: the guard is not held";
      Simheap.check_live m.block;
      m.value

    let release s g =
      if g <> unguarded then begin
        if not (live s g) then invalid_arg "Acquire_retire.release: the guard is not held";
        release_slot s (g land slot_mask)
      end

    let protect = acquire_own

    let guard s =
      let v = s.last in
      if v = no_guard then unguarded else (s.gens.(v) lsl gen_shift) lor v

    let rec cas ~eq cell ~expected ~desired =
      let cur = Sched.Atomic.get cell in
      eq cur expected
      && (Sched.Atomic.compare_and_set cell cur desired || cas ~eq cell ~expected ~desired)

    let unlink _ ~eq cell ~expected ~desired victim =
      if cas ~eq cell ~expected ~desired then Some victim else None

    let retire_excised s _ m =
      S.retire s.smr_s ~pid:s.pid (Smr.Deferred.make ~id:(ident m) ~birth:m.birth free_block m.block)

    let retire_free s w g =
      release s g;
      retire_excised s w w

    let excised _ m = get_unguarded m
  end

  include Scope

  (** {2 Retire, eject, flush} *)

  (** Defer the retire record [d] until no acquire active now still
      protects the object it names ({!Smr.Deferred.make}). CDRC retires
      its control blocks this way: each stays one record, named by its
      identity. *)
  let retire t ~pid d = S.retire t.smr ~pid d

  (* Run the [fresh] records at the head of [pid]'s queue uncharged,
     then up to [budget] more. A record [run] queues while one runs is
     put at the head, so it runs next and never waits for a later
     operation. *)
  let rec run_queue t q ~pid budget =
    let fresh = t.fresh.(pid) in
    if fresh > 0 || budget > 0 then
      match Smr.Retire_queue.pop q with
      | Smr.Deferred.Nil -> t.fresh.(pid) <- 0
      | d ->
          if fresh > 0 then t.fresh.(pid) <- fresh - 1;
          Smr.Deferred.run d ~pid;
          run_queue t q ~pid (if fresh > 0 then budget else budget - 1)

  (* Run [pid]'s queue as [run_queue] does, unless [pid] is already
     running it: an op that retires, ejects or runs another op from
     inside the drain only queues it, and this loop runs it once the op
     returns, so cascades run iteratively and never re-enter [eject]
     (§3.2). The empty check comes first: it follows every eject, and
     the empty case must not allocate. An op that raises leaves the rest
     queued for the pid's next drain. [true] when it ran the queue. *)
  let drain_upto t ~pid budget =
    let q = t.pending.(pid) in
    if (not (Smr.Retire_queue.is_empty q)) && not t.draining.(pid) then begin
      t.draining.(pid) <- true;
      match run_queue t q ~pid budget with
      | () ->
          t.draining.(pid) <- false;
          true
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          t.draining.(pid) <- false;
          Printexc.raise_with_backtrace e bt
    end
    else false

  (* Run [pid]'s queue to empty, cascades included. *)
  let drain t ~pid = ignore (drain_upto t ~pid max_int)

  (** Run the detached record [d] as [pid] before this returns, or, from
      inside a drain, right after the running op: [d] goes to the head
      of the pid's queue, ahead of any records an eject left there, and
      neither run is charged to an eject's slice. For deferred work that
      needs no scheme protection (CDRC's strong-only disposals). *)
  let run t ~pid d =
    Smr.Retire_queue.push_front t.pending.(pid) d;
    t.fresh.(pid) <- t.fresh.(pid) + 1;
    ignore (drain_upto t ~pid 0)

  (* One scheme scan for [pid], splicing the chain it releases into the
     pid's queue; [false] when it released nothing. *)
  let scan t ~pid ~force =
    (* A constant [~force:true] passes a static [Some true]; passing a
       variable would box it on every scan. *)
    match if force then S.eject ~force:true t.smr ~pid else S.eject t.smr ~pid with
    | Smr.Deferred.Nil -> false
    | chain ->
        Obs.Histo.observe eject_batch_h ~pid (Smr.Retire_queue.splice t.pending.(pid) chain);
        true

  (** One scheme scan — amortized by the scheme's [cleanup_freq], or
      unconditional under [~force] — then run records from the front of
      the pid's queue: everything, cascades included, under [~force];
      otherwise at most the instance's slice, [max 1 (cleanup_freq / 4)]
      (16 by default), leaving the rest for the pid's next eject. A scan
      releases a batch at once (about [cleanup_freq] records on kv-zipf
      at one pid), so the slice spreads its cost over the operations
      that follow instead of charging it all to the one whose retire
      made the scan due; the paper's [eject] likewise hands back one
      record per call. The carried queue has no fixed bound between
      flushes: HP, HE and PTB scan every [max cleanup_freq (2(k+1)P)]
      retires, EBR can release a stalled reader's whole backlog in one
      scan, and scans by ejects nested in a drain add to the queue
      without adding to the slice. A forced eject, [flush] or
      [quiesce] empties it. *)
  let eject ?(force = false) t ~pid =
    ignore (scan t ~pid ~force);
    if force then drain t ~pid
    else if drain_upto t ~pid t.slice then
      Obs.Histo.observe eject_carried_h ~pid (Smr.Retire_queue.size t.pending.(pid))

  (* The records abandoned pids had queued but not run, onto [pid]'s
     queue; the number taken. *)
  let adopt t ~pid = Smr.Retire_queue.splice t.pending.(pid) (Smr.Orphanage.take_all t.abandoned)

  (** Apply every deferred operation that is currently safe, plus the
      cascades it triggers, starting with those abandoned pids left
      queued ({!abandon}). A disposal retires its node's outgoing
      decrements, which may make the next node's disposal due, so
      [flush] ejects under [~force] and drains until the scheme yields
      nothing: a dequeued chain is reclaimed in one call, not one node
      per call. Only [flush] rescans; a rescan after every drain would
      cost the protected-pointer schemes their tail latency. *)
  let rec flush t ~pid =
    let adopted = adopt t ~pid in
    let more = scan t ~pid ~force:true in
    drain t ~pid;
    if more || adopted > 0 then flush t ~pid

  (** Teardown at quiescence: queue what [S.drain_all] returns on pid
      0's queue, and drain every pid's queue as that pid, until both stay
      empty, cascades included. An op that raises leaves the rest queued,
      as {!drain} does, for the next [quiesce]. Requires no concurrent
      activity. Afterwards, with no strong cycles, the heap counts
      exactly the objects still owned. *)
  let quiesce t =
    let progress = ref true in
    while !progress do
      progress := adopt t ~pid:0 + Smr.Retire_queue.splice t.pending.(0) (S.drain_all t.smr) > 0;
      Array.iteri
        (fun pid q ->
          if not (Smr.Retire_queue.is_empty q) then begin
            progress := true;
            drain t ~pid
          end)
        t.pending
    done

  (** Retire records not yet run, summed over every pid: those the
      scheme still holds, plus those an eject released but left queued
      for the pid's next one. Exact at quiescence, since the schemes'
      per-pid counts sum to their backlog; a sample taken while the
      pids run reads each pid's queue length unsynchronized. Records of
      abandoned pids waiting for adoption are not counted. *)
  let total_pending t =
    let acc = ref 0 in
    for pid = 0 to S.max_threads t.smr - 1 do
      acc := !acc + S.retired_count t.smr ~pid + Smr.Retire_queue.size t.pending.(pid)
    done;
    !acc

  (** Crash recovery: reap [pid]'s scheme state (close its critical
      section, clear its announcements, orphan its retired entries for
      adoption), mark the pid's section closed with no guard slot held,
      so that a thread recycling the pid can open one, and hand the
      records it had ejected but not run to the survivors: the next
      {!flush} or {!quiesce} runs them. Call once, after the thread has
      truly stopped. *)
  let abandon t ~pid =
    S.abandon t.smr ~pid;
    let s = t.scopes.(pid) in
    s.scoped <- 0;
    s.opened <- false;
    t.fresh.(pid) <- 0;
    Smr.Orphanage.put t.abandoned (Smr.Retire_queue.take t.pending.(pid))

  (** Hand [d], a chain of records that may run at any time, to the
      survivors, as {!abandon} does with a dead pid's queued records:
      the next {!flush} or {!quiesce} runs them. It makes no scheme
      call, so it is safe for a pid that crashed. *)
  let orphan t d = Smr.Orphanage.put t.abandoned d

  (** {2 Epoch watchdog}

      Detects the paper's §2 pathology at runtime: a thread stalled
      inside a critical section pins the scheme's reclamation frontier,
      and for a protected-region scheme like EBR {e all} garbage
      retired since then accumulates behind it. [stalled] feeds the
      instance's watchdog one (frontier, [total_pending]) sample and is
      [true] once the frontier has sat still across 3 consecutive
      samples while the backlog grew by more than 256 entries since the
      frontier last moved ({!Obs.Watchdog}'s defaults) — the
      supervisor's cue to find the stalled thread and [abandon] it. The
      slack absorbs the sawtooth of amortized eject scans, so a healthy
      bounded-garbage scheme (IBR with one stalled thread: frontier
      pinned but backlog capped) doesn't trip it. Schemes without a
      global clock (HP, PTB, Hyaline) are never stalled: their garbage
      is already bounded per stalled thread. The verdict text reaches
      [Obs.Verdicts] and the trace through the watchdog. *)
  let stalled t =
    match S.reclamation_frontier t.smr with
    | None -> false
    | Some frontier -> (
        match Obs.Watchdog.check t.wd ~pid:0 ~frontier ~pending:(total_pending t) with
        | Obs.Watchdog.Stuck _ -> true
        | Obs.Watchdog.Progressing -> false)
end
