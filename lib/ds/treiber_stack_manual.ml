(** Treiber's lock-free stack under manual SMR — not one of the
    paper's benchmark structures, but the canonical smallest consumer
    of safe memory reclamation; included to show the scheme interface
    generalizes beyond the paper's three structures and as the simplest
    worked example of the announce/confirm protocol.

    The pop path is the classic read-reclaim race: read [top], read
    [top.next], CAS — between the reads another popper may free the old
    top. The protect/confirm step closes it for every scheme. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { value : int; next : node Ar.managed option }

  type t = { ar : Ar.t; top : node Ar.managed option Sched.Atomic.t }
  type ctx = { t : t; pid : int }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    { ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads (); top = Sched.Atomic.make None }

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some m -> Ident.of_val m

  (* Each node is pushed in one [Some] box, which links to it from
     [top] and from the node above, so the CASes compare links
     physically. A push reads through no guard, but allocates in the
     pid's section, as every structure does. *)
  let rec push_in s c v =
    let top = Sched.Atomic.get c.t.top in
    let m = Ar.alloc c.t.ar ~pid:c.pid { value = v; next = top } in
    if not (Sched.Atomic.compare_and_set c.t.top top (Some m)) then begin
      Ar.discard m;
      push_in s c v
    end

  let push c v = Ar.scope c.t.ar ~pid:c.pid { f = push_in } c v

  let rec pop_in s c () =
    let top = Ar.protect s ~ident:ident_of c.t.top in
    let g = Ar.guard s in
    (* A pop holds one guard at a time, and every pid's pool holds at
       least one slot. *)
    if not (Ar.guarded g) then failwith "treiber_stack: out of announcement slots";
    match top with
    | None -> None
    | Some m -> (
        let node = Ar.get s g m in
        match Ar.unlink s ~eq:( == ) c.t.top ~expected:top ~desired:node.next m with
        | Some w ->
            (* [retire_free] releases [g] before retiring, so the
               retire's scan no longer sees our own announcement of
               the popped node. *)
            Ar.retire_free s w g;
            Ar.eject c.t.ar ~pid:c.pid;
            Some node.value
        | None ->
            Ar.release s g;
            pop_in s c ())

  let pop c = Ar.scope c.t.ar ~pid:c.pid { f = pop_in } c ()

  let flush c = Ar.flush c.t.ar ~pid:c.pid

  (** Reap a crashed thread's scheme state (see {!Acquire_retire}). *)
  let abandon t ~pid = Ar.abandon t.ar ~pid

  (* Quiescent helpers *)
  let size t =
    let rec go acc = function None -> acc | Some m -> go (acc + 1) (Ar.quiescent m).next in
    go 0 (Sched.Atomic.get t.top)

  let live_objects t = Simheap.live (Ar.heap t.ar)
  let retired_backlog t = Ar.total_pending t.ar
  let stalled t = Ar.stalled t.ar

  let teardown t =
    let rec go = function
      | None -> ()
      | Some m ->
          let next = (Ar.quiescent m).next in
          if Ar.is_live m then Ar.discard m;
          go next
    in
    go (Sched.Atomic.get t.top);
    Sched.Atomic.set t.top None;
    Ar.quiesce t.ar
end
