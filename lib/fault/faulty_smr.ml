(** Fault-injecting wrapper over any SMR scheme.

    [Make (S) (P)] is again an [Smr.Smr_intf.S], so every functor-built
    data structure and the whole acquire–retire / CDRC stack runs under
    fault injection without touching scheme internals — instantiate the
    structure over the wrapped module and drive it normally.

    Behaviour around the plan's actions:

    - [Delay]: spins before the underlying call.
    - [Crash]: raises {!Fault_plan.Crashed} {e before} the underlying
      call at every site except [On_retire], where it raises {e after}
      the entry is recorded. This choice makes crashes resource-exact:
      a crash can strand protection (slots, open critical sections) for
      [abandon] to reap, but can never lose a retired entry (it is
      queued) nor an ejected one (the eject never happened).
    - [Stall]: the firing call completes, then the thread's protection
      freezes: while stalled, [end_critical_section] and [release] are
      suppressed (recorded, not executed) — the thread keeps pinning
      whatever it pinned, exactly like a preempted thread holding
      announcements — and [eject] returns [Nil]. When the stall expires,
      the first subsequent call replays the suppressed exits ("the
      thread wakes and finishes its frozen operation").
    - [Drop_eject]: the next n entries the underlying [eject] returns
      are re-retired instead (a lost scan: reclamation is delayed, not
      leaked).
    - [Slow]: from the firing hit on, every intercepted site spins
      proportionally to the factor before proceeding — a gray-failed
      thread that is degraded but alive — until [Fault_plan.heal]. *)

module Make
    (S : Smr.Smr_intf.S)
    (P : sig
      val plan : Fault_plan.t
    end) =
struct
  let plan = P.plan
  let name = S.name
  let is_protected_region = S.is_protected_region
  let confirm_is_trivial = S.confirm_is_trivial
  let requires_validation = S.requires_validation

  type guard = S.guard

  type pstate = { mutable susp_guards : S.guard list; mutable susp_end_cs : bool }

  type t = { inner : S.t; ps : pstate array }

  let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
    if max_threads > Fault_plan.max_pids then
      invalid_arg "Faulty_smr: max_threads exceeds Fault_plan.max_pids";
    {
      inner = S.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads ();
      ps = Array.init max_threads (fun _ -> { susp_guards = []; susp_end_cs = false });
    }

  let inner t = t.inner
  let max_threads t = S.max_threads t.inner

  let spin n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  (* Gray failure: pay the persistent per-site slowdown, if any. *)
  let pace ~pid =
    match Fault_plan.slow_factor plan ~pid with 0 -> () | f -> spin f

  (* On the stalled->running edge, the thread "wakes" and finishes its
     frozen operation: replay the suppressed releases and section exit. *)
  let maybe_wake t ~pid =
    let p = t.ps.(pid) in
    if
      (p.susp_guards <> [] || p.susp_end_cs)
      && not (Fault_plan.stalled plan ~pid)
    then begin
      List.iter (fun g -> S.release t.inner ~pid g) (List.rev p.susp_guards);
      p.susp_guards <- [];
      if p.susp_end_cs then begin
        p.susp_end_cs <- false;
        S.end_critical_section t.inner ~pid
      end
    end

  (* Apply a fired action where Crash aborts before the underlying
     call (used by every site except On_retire). *)
  let act_before ~pid = function
    | None -> ()
    | Some (Fault_plan.Delay n) -> spin n
    | Some Fault_plan.Crash -> raise (Fault_plan.Crashed pid)
    | Some (Fault_plan.Stall _ | Fault_plan.Drop_eject _ | Fault_plan.Slow _) -> ()

  let begin_critical_section t ~pid =
    maybe_wake t ~pid;
    let was_stalled = Fault_plan.stalled plan ~pid in
    act_before ~pid (Fault_plan.hit plan On_begin_cs ~pid);
    pace ~pid;
    (* A stalled thread starts no new sections (parked drivers should
       not get here; the guard keeps a stray call from un-pinning the
       frozen announcement). *)
    if not was_stalled then S.begin_critical_section t.inner ~pid

  let end_critical_section t ~pid =
    if Fault_plan.stalled plan ~pid then t.ps.(pid).susp_end_cs <- true
    else begin
      maybe_wake t ~pid;
      S.end_critical_section t.inner ~pid
    end

  let alloc_hook t ~pid =
    maybe_wake t ~pid;
    act_before ~pid (Fault_plan.hit plan On_alloc ~pid);
    pace ~pid;
    S.alloc_hook t.inner ~pid

  let try_acquire t ~pid id = S.try_acquire t.inner ~pid id
  let acquire t ~pid id = S.acquire t.inner ~pid id

  let confirm t ~pid g id =
    act_before ~pid (Fault_plan.hit plan On_confirm ~pid);
    pace ~pid;
    S.confirm t.inner ~pid g id

  let release t ~pid g =
    if Fault_plan.stalled plan ~pid then
      t.ps.(pid).susp_guards <- g :: t.ps.(pid).susp_guards
    else begin
      maybe_wake t ~pid;
      S.release t.inner ~pid g
    end

  let retire t ~pid d =
    maybe_wake t ~pid;
    let a = Fault_plan.hit plan On_retire ~pid in
    (match a with Some (Fault_plan.Delay n) -> spin n | _ -> ());
    pace ~pid;
    S.retire t.inner ~pid d;
    (* Crash after recording: the thread dies on the way out, but the
       entry is safely queued for adoption. *)
    match a with Some Fault_plan.Crash -> raise (Fault_plan.Crashed pid) | _ -> ()

  (* Re-retire the first [m] records of the chain [d] under a fresh
     never-announced identity and a maximally conservative birth
     (delayed, never unsafe), and return the rest. *)
  let rec drop t ~pid m d =
    if m = 0 then d
    else
      match d with
      | Smr.Deferred.Nil -> d
      | Smr.Deferred.D _ ->
          let rest = Smr.Deferred.next d in
          Smr.Deferred.set_next d Smr.Deferred.Nil;
          Smr.Deferred.rename d ~id:(Smr.Ident.of_val (ref 0)) ~birth:0;
          S.retire t.inner ~pid d;
          drop t ~pid (m - 1) rest

  let eject ?force t ~pid =
    if Fault_plan.stalled plan ~pid then Smr.Deferred.Nil
    else begin
      maybe_wake t ~pid;
      act_before ~pid (Fault_plan.hit plan On_eject ~pid);
      pace ~pid;
      let ops = S.eject ?force t.inner ~pid in
      match Fault_plan.take_drops plan ~pid ~avail:(Smr.Deferred.length ops) with
      | 0 -> ops
      | m -> drop t ~pid m ops
    end

  let retired_count t ~pid = S.retired_count t.inner ~pid

  let abandon t ~pid =
    (* The pid is dead; its suspended (frozen) exits must not replay
       on top of the reaped state. *)
    t.ps.(pid).susp_guards <- [];
    t.ps.(pid).susp_end_cs <- false;
    S.abandon t.inner ~pid

  let reclamation_frontier t = S.reclamation_frontier t.inner
  let drain_all t = S.drain_all t.inner
end
