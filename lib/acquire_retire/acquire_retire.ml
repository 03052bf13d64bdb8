(** Generalized acquire–retire (paper §3.1, Fig 2): the one
    reclamation runtime.

    This layer packages any manual SMR scheme as the paper's
    generalized interface: [alloc] / [retire] / [eject] plus
    protection. The manual data structures run on it, and so does CDRC
    ({!Cdrc.Make} instantiates it once per runtime), so the layering is
    data structure → CDRC → acquire–retire → scheme, and draining,
    flushing, backlog accounting and the watchdog exist once, here.

    Differences from Fig 2, forced by OCaml and documented in
    DESIGN.md: [alloc] wraps an existing value in a {!Make.managed}
    record (carrying the birth tag and the simulated-heap block) rather
    than calling a constructor; [eject] runs what the scheme releases
    through the pid's deferred-op queue, never reentrantly (§3.2); and
    protection is acquired inside a {!Make.scope}, whose rank-2 body
    type keeps every guard from outliving the critical section that
    backs it (DESIGN.md §3), or — only for CDRC's snapshots, whose
    guards outlive the call that takes them — through
    {!Make.protect_unscoped}. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Smr_impl = S

  (* A pid's protection-scope state, preallocated so that neither
     opening a scope nor protecting a pointer allocates bookkeeping:
     bit [g] of [held] is set while the open scope holds guard [g]. *)
  type scope_state = { smr_s : S.t; pid : int; mutable held : int; mutable opened : bool }

  type t = {
    smr : S.t;
    heap : Simheap.t;
    (* Per-pid deferred-op queues and their reentrancy latches, owner
       pid only, like the scheme's retired lists. *)
    pending : Smr.Deferred.t Queue.t array;
    draining : bool array;
    scopes : scope_state array;
    wd : Obs.Watchdog.t; (* sampled by [stalled] *)
  }

  (* AR-level eject batch sizes: unlike the scheme-level histogram this
     sees the batches the runtime runs, i.e. after any fault-injection
     wrapper has had its say. *)
  let eject_batch_h = Obs.Histo.histo ("ar." ^ String.lowercase_ascii S.name ^ ".eject.batch_size")

  (** A value under acquire–retire management. [alloc] is part of the
      Fig 2 interface because IBR and HE must tag each object with a
      birth epoch at allocation time. *)
  type 'a managed = { value : 'a; birth : int; block : Simheap.block }

  let create ?epoch_freq ?cleanup_freq ?slots_per_thread ?heap ~max_threads () =
    let heap =
      match heap with Some h -> h | None -> Simheap.create ~name:("ar-" ^ S.name) ()
    in
    let smr = S.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () in
    if Smr.Knobs.slots_per_thread (S.knobs smr) >= Sys.int_size then
      invalid_arg "Acquire_retire.create: more slots per thread than a scope's bitmask holds";
    {
      smr;
      heap;
      pending = Array.init max_threads (fun _ -> Queue.create ());
      draining = Array.make max_threads false;
      scopes =
        Array.init max_threads (fun pid -> { smr_s = smr; pid; held = 0; opened = false });
      wd = Obs.Watchdog.create ~scheme:S.name ();
    }

  let heap t = t.heap
  let max_threads t = S.max_threads t.smr

  (** The instance's knob handle, under the scheme's name — the
      CONTROLLABLE surface the adaptive controller retunes. *)
  let handle t =
    {
      Smr.Knobs.h_scheme = S.name;
      h_knobs = S.knobs t.smr;
      h_force_advance = (fun () -> S.force_advance t.smr);
    }

  (** The birth tag of an object allocated now: what [alloc] stores, and
      what a caller that allocates its own records (CDRC's control
      blocks) passes to [retire_id]. *)
  let birth t ~pid = S.alloc_hook t.smr ~pid

  (* The hook runs strictly before the heap allocation: if it raises
     (fault injection crashing the thread), no block exists yet and
     nothing can leak. *)
  let alloc t ~pid value =
    let birth = birth t ~pid in
    let block = Simheap.alloc t.heap in
    { value; birth; block }

  let get (m : _ managed) =
    Simheap.check_live m.block;
    m.value

  let is_live (m : _ managed) = Simheap.is_live m.block
  let ident (m : _ managed) = Smr.Ident.of_val m

  let begin_critical_section t ~pid = S.begin_critical_section t.smr ~pid
  let end_critical_section t ~pid = S.end_critical_section t.smr ~pid

  (* The announce/confirm loop of [Smr.Smr_intf], the only one in the
     stack: confirm [g] against [v], re-reading [cell] after each miss,
     and return the value [g] covers. *)
  let rec settle (smr : Smr_impl.t) ~pid ~ident cell g v =
    if S.confirm smr ~pid g (ident v) then v
    else settle smr ~pid ~ident cell g (Sched.Atomic.get cell)

  (** {2 Protection scopes}

      The way a data structure protects a pointer. [scope t ~pid { f }]
      opens a critical section, runs [f] on a fresh scope, and on every
      exit — normal or exceptional — releases each guard still held
      exactly once, then closes the section. The body's type
      [{ f : 's. 's scope -> 'a }] is rank-2: [f] must work for every
      ['s], so ['s] cannot occur in ['a], and neither a guard nor
      anything typed by its scope can be returned from the body or
      stored where the body's caller sees it (test/scope_fixtures pins
      this with programs that must fail to compile). The scope is
      sealed: a scheme's [S.guard = int] cannot be forged into an
      ['s guard]. Scopes do not nest: closing an inner one would end
      the critical section the outer body still relies on, so opening
      a second scope for a pid whose scope is open raises
      [Invalid_argument]. *)
  module Scope : sig
    type 's scope
    type 's guard
    type 'a body = { f : 's. 's scope -> 'a } [@@unboxed]

    val scope : t -> pid:int -> 'a body -> 'a

    val protect : 's scope -> ident:('v -> Smr.Ident.t) -> 'v Sched.Atomic.t -> ('v * 's guard) option
    (** The two-phase announce/confirm protocol of [Smr.Smr_intf] on
        [cell]: [ident] (a top-level projection, so the call allocates
        no closure) names what the scheme announces and validates.
        [None] means the announcement slots ran out; what to do then is
        the caller's policy. *)

    val release : 's scope -> 's guard -> unit
    (** Release before scope exit, where the order against a retire or
        an eject matters, or to free a slot mid-traversal. A guard is
        its slot's index, and a released slot can be handed out again
        by the next [protect]: releasing a guard twice is a no-op only
        if no [protect] since the first release reused its slot. *)
  end = struct
    type 's scope = scope_state
    type 's guard = S.guard
    type 'a body = { f : 's. 's scope -> 'a } [@@unboxed]

    let hold s g = s.held <- s.held lor (1 lsl g)

    let release s g =
      let bit = 1 lsl g in
      if s.held land bit <> 0 then begin
        s.held <- s.held lxor bit;
        S.release s.smr_s ~pid:s.pid g
      end

    let rec release_mask s mask g =
      if mask <> 0 then begin
        if mask land 1 <> 0 then S.release s.smr_s ~pid:s.pid g;
        release_mask s (mask lsr 1) (g + 1)
      end

    (* Marks the scope closed and clears the mask before releasing, so
       a release that raises can neither make a guard be released twice
       nor keep the pid's next scope from opening. *)
    let close s =
      let mask = s.held in
      s.held <- 0;
      s.opened <- false;
      release_mask s mask 0;
      S.end_critical_section s.smr_s ~pid:s.pid

    let scope t ~pid body =
      let s = t.scopes.(pid) in
      if s.opened then invalid_arg "Acquire_retire.scope: the pid's scope is already open";
      S.begin_critical_section t.smr ~pid;
      s.opened <- true;
      match body.f s with
      | v ->
          close s;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          close s;
          Printexc.raise_with_backtrace e bt

    let protect s ~ident cell =
      if S.confirm_is_trivial then (
        match S.try_acquire s.smr_s ~pid:s.pid Smr.Ident.null with
        | Some g ->
            hold s g;
            Some (Sched.Atomic.get cell, g)
        | None -> None)
      else
        match S.try_acquire s.smr_s ~pid:s.pid (ident (Sched.Atomic.get cell)) with
        | Some g ->
            hold s g;
            Some (settle s.smr_s ~pid:s.pid ~ident cell g (Sched.Atomic.get cell), g)
        | None -> None
  end

  include Scope

  (** {2 Unscoped protection}

      CDRC's snapshots keep their guard after the call that took it, so
      they cannot protect inside a scope. [protect_unscoped] is their
      entry point to the same announce/confirm loop; nothing releases
      its guard but {!release_unscoped}, and the caller must hold a
      critical section across both. *)

  (** The guard of a failed fresh-slot announcement. *)
  let no_guard = -1

  let announce (smr : Smr_impl.t) ~pid ~reserved id =
    if reserved then S.acquire smr ~pid id
    else match S.try_acquire smr ~pid id with Some g -> g | None -> no_guard

  (** [protect_unscoped t ~pid ~reserved ~ident cell] announces on the
      pid's reserved slot ([~reserved:true]; at most one such guard per
      pid at a time, and it never fails) or on a fresh one, and returns
      the value the guard covers with the guard. The guard is
      {!no_guard} when no fresh slot was left; the value is then
      unprotected and must not be dereferenced.

      Without [seen] it protects [cell]'s current value: announce a
      read, confirm a re-read, as {!Scope.protect} does (one read for a
      scheme whose confirm is trivial). [~seen:v] is for a value [v]
      already read from [cell] and protected by another guard: it is
      announced and confirmed as read, and [cell] is re-read only after
      a miss — how Fig 9's weak snapshot protects a disposal. *)
  let protect_unscoped ?seen t ~pid ~reserved ~ident cell =
    match seen with
    | Some v ->
        let g = announce t.smr ~pid ~reserved (ident v) in
        if g = no_guard then (v, g) else (settle t.smr ~pid ~ident cell g v, g)
    | None ->
        if S.confirm_is_trivial then
          let g = announce t.smr ~pid ~reserved Smr.Ident.null in
          (Sched.Atomic.get cell, g)
        else
          let v = Sched.Atomic.get cell in
          let g = announce t.smr ~pid ~reserved (ident v) in
          if g = no_guard then (v, g)
          else (settle t.smr ~pid ~ident cell g (Sched.Atomic.get cell), g)

  let release_unscoped t ~pid g = S.release t.smr ~pid g

  (** {2 Retire, eject, flush} *)

  (** Defer [op] until no acquire active now still protects the object
      named [id], born at [birth]. CDRC retires its control blocks this
      way: each stays one record, named by its identity. *)
  let retire_id t ~pid id ~birth op = S.retire t.smr ~pid id ~birth op

  let retire t ~pid (m : _ managed) (op : Smr.Deferred.t) =
    retire_id t ~pid (ident m) ~birth:m.birth op

  (** Manual-SMR convenience: retire with the deferred operation being
      the reclamation itself. *)
  let retire_free t ~pid (m : _ managed) =
    retire t ~pid m (fun _pid -> Simheap.free m.block)

  (* Run [pid]'s queue to empty, unless [pid] is already running it: an
     op that retires, ejects or runs another op from inside the drain
     only queues it, and this loop runs it once the op returns, so
     cascades run iteratively and never re-enter [eject] (§3.2). The
     empty check comes first: it follows every eject, and the empty case
     must not allocate. An op that raises leaves the rest queued for the
     pid's next drain. *)
  let drain t ~pid =
    let q = t.pending.(pid) in
    if (not (Queue.is_empty q)) && not t.draining.(pid) then begin
      t.draining.(pid) <- true;
      match
        while not (Queue.is_empty q) do
          (Queue.pop q) pid
        done
      with
      | () -> t.draining.(pid) <- false
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          t.draining.(pid) <- false;
          Printexc.raise_with_backtrace e bt
    end

  (** Run [op] as [pid] through the pid's queue: now, or, from inside
      a drain, once the running op returns. For deferred work that needs
      no scheme protection (CDRC's strong-only disposals). *)
  let run t ~pid op =
    Queue.push op t.pending.(pid);
    drain t ~pid

  let rec push_all q = function
    | [] -> ()
    | op :: rest ->
        Queue.push op q;
        push_all q rest

  (* One scheme scan for [pid], queueing what it releases; [false] when
     it released nothing. *)
  let scan t ~pid ~force =
    match S.eject ~force t.smr ~pid with
    | [] -> false
    | ops ->
        Obs.Histo.observe eject_batch_h ~pid (List.length ops);
        push_all t.pending.(pid) ops;
        true

  (** One scheme scan — amortized by the scheme's [cleanup_freq] and
      capped by its [batch_cap], or unconditional and uncapped under
      [~force] — then run everything it released. *)
  let eject ?(force = false) t ~pid =
    ignore (scan t ~pid ~force);
    drain t ~pid

  (** Apply every deferred operation that is currently safe, plus the
      cascades it triggers. A disposal retires its node's outgoing
      decrements, which may make the next node's disposal due, so
      [flush] ejects under [~force] and drains until the scheme yields
      nothing: a dequeued chain is reclaimed in one call, not one node
      per call. Only [flush] rescans; a rescan after every drain would
      cost the protected-pointer schemes their tail latency. *)
  let rec flush t ~pid =
    let more = scan t ~pid ~force:true in
    drain t ~pid;
    if more then flush t ~pid

  (** Teardown at quiescence: run what [S.drain_all] returns as pid 0
      and every pid's queue as that pid, until both stay empty,
      cascades included. Requires no concurrent activity. Afterwards,
      with no strong cycles, the heap counts exactly the objects still
      owned. *)
  let quiesce t =
    let progress = ref true in
    while !progress do
      progress := false;
      let ops = S.drain_all t.smr in
      if ops <> [] then progress := true;
      List.iter (fun op -> op 0) ops;
      Array.iteri
        (fun pid q ->
          while not (Queue.is_empty q) do
            progress := true;
            (Queue.pop q) pid
          done)
        t.pending
    done

  (** Retired entries not yet ejected, summed over every pid: exact,
      since the schemes' per-pid counts sum to their backlog. *)
  let total_pending t =
    let acc = ref 0 in
    for pid = 0 to S.max_threads t.smr - 1 do
      acc := !acc + S.retired_count t.smr ~pid
    done;
    !acc

  (** Crash recovery: reap [pid]'s scheme state (close its critical
      section, clear its announcements, orphan its retired entries for
      adoption). Call once, after the thread has truly stopped. *)
  let abandon t ~pid = S.abandon t.smr ~pid

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
