(** Generalized acquire–retire (paper §3.1, Fig 2).

    This layer packages any manual SMR scheme as the paper's
    generalized interface: [alloc] / [retire] / [eject] plus protection
    scopes. It is the contribution that lets reference counting (and
    the manual data structures) be written once against a scheme-
    agnostic API.

    Differences from Fig 2, forced by OCaml and documented in
    DESIGN.md: [alloc] wraps an existing value in a {!Make.managed}
    record (carrying the birth tag and the simulated-heap block) rather
    than calling a constructor; [eject] returns deferred closures for
    the caller to run (never reentrantly — use {!Make.drain}); and
    protection is acquired only inside a {!Make.scope}, whose rank-2
    body type keeps every guard from outliving the critical section
    that backs it (DESIGN.md §3). *)

module Make (S : Smr.Smr_intf.S) = struct
  module Smr_impl = S

  (* A pid's protection-scope state, preallocated so that neither
     opening a scope nor protecting a pointer allocates bookkeeping:
     bit [g] of [held] is set while the open scope holds guard [g]. *)
  type scope_state = { smr_s : S.t; pid : int; mutable held : int; mutable opened : bool }

  type t = {
    smr : S.t;
    heap : Simheap.t;
    (* AR-level batch sizing: ops the scheme released but the cap has
       not yet let through. Owner-pid only, like the retired queues. *)
    carry : Smr.Deferred.t Queue.t array;
    scopes : scope_state array;
  }

  (* AR-level eject batch sizes: unlike the scheme-level histogram this
     sees the batches the *data structure* drains, i.e. after any
     fault-injection wrapper has had its say. *)
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
      carry = Array.init max_threads (fun _ -> Queue.create ());
      scopes =
        Array.init max_threads (fun pid -> { smr_s = smr; pid; held = 0; opened = false });
    }

  let heap t = t.heap
  let max_threads t = S.max_threads t.smr

  let handle t =
    {
      Smr.Knobs.h_scheme = S.name;
      h_knobs = S.knobs t.smr;
      h_force_advance = (fun () -> S.force_advance t.smr);
    }

  (* The hook runs strictly before the heap allocation: if it raises
     (fault injection crashing the thread), no block exists yet and
     nothing can leak. *)
  let alloc t ~pid value =
    let birth = S.alloc_hook t.smr ~pid in
    let block = Simheap.alloc t.heap in
    { value; birth; block }

  let get (m : _ managed) =
    Simheap.check_live m.block;
    m.value

  let is_live (m : _ managed) = Simheap.is_live m.block
  let ident (m : _ managed) = Smr.Ident.of_val m

  let begin_critical_section t ~pid = S.begin_critical_section t.smr ~pid
  let end_critical_section t ~pid = S.end_critical_section t.smr ~pid

  (** {2 Protection scopes}

      The only way to protect a pointer. [scope t ~pid { f }] opens a
      critical section, runs [f] on a fresh scope, and on every exit —
      normal or exceptional — releases each guard still held exactly
      once, then closes the section. The body's type
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

    let rec settle s ~ident cell g =
      let v = Sched.Atomic.get cell in
      if S.confirm s.smr_s ~pid:s.pid g (ident v) then v else settle s ~ident cell g

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
            Some (settle s ~ident cell g, g)
        | None -> None
  end

  include Scope

  let retire t ~pid (m : _ managed) (op : Smr.Deferred.t) =
    S.retire t.smr ~pid (ident m) ~birth:m.birth op

  (** Manual-SMR convenience: retire with the deferred operation being
      the reclamation itself. *)
  let retire_free t ~pid (m : _ managed) =
    retire t ~pid m (fun _pid -> Simheap.free m.block)

  (* Batch sizing happens here as well as inside the scheme: whatever
     the scheme releases joins the pid's carry queue, and at most
     [Knobs.batch_cap] ops come back out per call (everything under
     [~force], so drain/teardown loops still terminate). The cap is
     re-read from the live knob block each call, so the controller's
     moves take effect on the very next eject. *)
  let eject ?(force = false) t ~pid =
    let q = t.carry.(pid) in
    List.iter (fun op -> Queue.push op q) (S.eject ~force t.smr ~pid);
    let cap = if force then max_int else Smr.Knobs.batch_cap (S.knobs t.smr) in
    let rec take n acc =
      if n <= 0 then List.rev acc
      else
        match Queue.take_opt q with
        | None -> List.rev acc
        | Some op -> take (n - 1) (op :: acc)
    in
    let ops = take cap [] in
    (match ops with [] -> () | _ -> Obs.Histo.observe eject_batch_h ~pid (List.length ops));
    ops

  (** Run every ejectable deferred operation. Safe against cascades:
      operations executed here may retire further objects; we loop
      until [eject] yields nothing, never recursing into a running
      operation. *)
  let drain t ~pid =
    let rec go () =
      match eject ~force:true t ~pid with
      | [] -> ()
      | ops ->
          List.iter (fun op -> op pid) ops;
          go ()
    in
    go ()

  (** Crash recovery: reap [pid]'s scheme state (close its critical
      section, clear announcements, orphan its retired entries for
      adoption). Call once, after the thread has truly stopped. *)
  let abandon t ~pid = S.abandon t.smr ~pid

  (** {2 Epoch watchdog}

      Detects the paper's §2 pathology at runtime: a thread stalled
      inside a critical section pins the scheme's reclamation frontier,
      and for a protected-region scheme like EBR {e all} garbage
      retired since then accumulates behind it. The watchdog samples
      (frontier, total pending retired entries) and reports [Stuck]
      once the frontier has sat still across [threshold] consecutive
      checks while the backlog grew by more than [slack] entries since
      the frontier last moved — the supervisor's cue to find the
      stalled thread and [abandon] it. The [slack] absorbs the sawtooth
      of amortized eject scans, so a healthy bounded-garbage scheme
      (IBR with one stalled thread: frontier pinned but backlog capped)
      doesn't trip it. Schemes without a global clock (HP, PTB,
      Hyaline) never report stuck: their garbage is already bounded per
      stalled thread. *)

  type watchdog = Obs.Watchdog.t

  type watchdog_verdict = Progressing | Stuck of { frontier : int; pending : int }

  let watchdog ?threshold ?slack () = Obs.Watchdog.create ?threshold ?slack ~scheme:S.name ()

  let total_pending t =
    let n = S.max_threads t.smr in
    let acc = ref 0 in
    for pid = 0 to n - 1 do
      acc := !acc + S.retired_count t.smr ~pid
    done;
    !acc

  (* The verdict counters, the bounded string sink drained by the
     workload driver, and the trace event all live in [Obs.Watchdog];
     here we only re-expose its verdict under this functor's historical
     constructors. *)
  let watchdog_check t (w : watchdog) =
    match S.reclamation_frontier t.smr with
    | None -> Progressing
    | Some frontier -> (
        let pending = total_pending t in
        match Obs.Watchdog.check w ~pid:0 ~frontier ~pending with
        | Obs.Watchdog.Progressing -> Progressing
        | Obs.Watchdog.Stuck { frontier; pending } -> Stuck { frontier; pending })

  (** Teardown at quiescence: apply every pending deferred operation,
      including cascades. Requires no concurrent activity. *)
  let quiesce t =
    let drain_carry () =
      Array.iter
        (fun q ->
          while not (Queue.is_empty q) do
            (Queue.pop q) 0
          done)
        t.carry
    in
    let rec go () =
      drain_carry ();
      match S.drain_all t.smr with
      | [] -> drain_carry ()
      | ops ->
          List.iter (fun op -> op 0) ops;
          go ()
    in
    go ()
end
