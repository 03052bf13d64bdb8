(** Michael–Scott lock-free FIFO queue (PODC 1996) under manual SMR —
    the structure hazard pointers were originally demonstrated on, and
    a second queue shape (single dummy node, no back-links) to contrast
    with the paper's doubly-linked queue.

    Protection discipline (Michael 2004): the dequeuer protects the
    head node, then its successor, and must re-validate [head == h]
    after each protection before dereferencing — the successor of a
    stale head may already be reclaimed under the pointer/interval
    schemes. [Ar.protect]'s confirm re-validates the head; the
    successor's re-validation is a re-read of [head], performed
    unconditionally (for EBR/Hyaline it is redundant but harmless). *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  (* A node enters every cell that links to it in the one [Some] box
     its enqueuer made (the dummy's is shared by head and tail), so the
     CASes compare links physically. *)
  type node = { value : int; next : link Sched.Atomic.t }
  and link = node Ar.managed option

  type t = { ar : Ar.t; head : link Sched.Atomic.t; tail : link Sched.Atomic.t }
  type ctx = { t : t; pid : int }

  let mk_node ar ~pid v = Ar.alloc ar ~pid { value = v; next = Sched.Atomic.make None }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    let ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads () in
    let dummy = Some (mk_node ar ~pid:0 min_int) in
    { ar; head = Sched.Atomic.make dummy; tail = Sched.Atomic.make dummy }

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some m -> Ident.of_val m

  (* Protect the destination of an anchor cell (head or tail), or of a
     node's [next] link; the guard is [Ar.guard s]. The protect's
     confirm is Michael's [tail == t] / [head == h] check. *)
  let protect s cell =
    let l = Ar.protect s ~ident:ident_of cell in
    if Ar.guarded (Ar.guard s) then l else failwith "ms_queue: out of announcement slots"

  (* Each retry releases the attempt's guards first, keeping the slot
     budget at two. *)
  let rec enqueue_in s c link =
    let lt = protect s c.t.tail in
    let g = Ar.guard s in
    match lt with
    | None -> failwith "ms_queue: null tail"
    | Some tm -> (
        let tnode = Ar.get s g tm in
        match Sched.Atomic.get tnode.next with
        | None ->
            if Sched.Atomic.compare_and_set tnode.next None link then
              (* Swing the tail; failure means someone helped. *)
              ignore (Sched.Atomic.compare_and_set c.t.tail lt link)
            else begin
              Ar.release s g;
              enqueue_in s c link
            end
        | next ->
            (* Help a lagging enqueuer advance the tail. *)
            ignore (Sched.Atomic.compare_and_set c.t.tail lt next);
            Ar.release s g;
            enqueue_in s c link)

  (* The scope body: allocate [v]'s node inside the scope, then link
     it. *)
  let enqueue_new s c v = enqueue_in s c (Some (mk_node c.t.ar ~pid:c.pid v))
  let enqueue c v = Ar.scope c.t.ar ~pid:c.pid { f = enqueue_new } c v

  let rec dequeue_in s c () =
    let lh = protect s c.t.head in
    let gh = Ar.guard s in
    match lh with
    | None -> failwith "ms_queue: null head"
    | Some hm -> (
        let hnode = Ar.get s gh hm in
        let lt = Sched.Atomic.get c.t.tail in
        match Sched.Atomic.get hnode.next with
        | None -> None
        | Some nm as next ->
            (* Protect the successor, then re-validate the head: a
               stale head's successor may already be reclaimed. Once
               set, [hnode.next] never changes, so protecting through
               it protects [nm]. *)
            ignore (protect s hnode.next);
            let gn = Ar.guard s in
            if Sched.Atomic.get c.t.head != lh then retry s c gh gn
            else if lt == lh then begin
              (* Tail is lagging behind a non-empty queue: help. *)
              ignore (Sched.Atomic.compare_and_set c.t.tail lt next);
              retry s c gh gn
            end
            else begin
              let v = (Ar.get s gn nm).value in
              match Ar.unlink s ~eq:( == ) c.t.head ~expected:lh ~desired:next hm with
              | Some w ->
                  (* Releasing [gh] first lets this eject reclaim the
                     old head; [gn] outlives it until the scope
                     exits. *)
                  Ar.retire_free s w gh;
                  Ar.eject c.t.ar ~pid:c.pid;
                  Some v
              | None -> retry s c gh gn
            end)

  and retry s c gh gn =
    Ar.release s gn;
    Ar.release s gh;
    dequeue_in s c ()

  let dequeue c = Ar.scope c.t.ar ~pid:c.pid { f = dequeue_in } c ()

  let flush c = Ar.flush c.t.ar ~pid:c.pid
  let live_objects t = Simheap.live (Ar.heap t.ar)

  let teardown t =
    let rec go = function
      | None -> ()
      | Some m ->
          let next = Sched.Atomic.get (Ar.quiescent m).next in
          if Ar.is_live m then Ar.discard m;
          go next
    in
    go (Sched.Atomic.get t.head);
    Sched.Atomic.set t.head None;
    Sched.Atomic.set t.tail None;
    Ar.quiesce t.ar
end
