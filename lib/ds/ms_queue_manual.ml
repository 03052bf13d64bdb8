(** Michael–Scott lock-free FIFO queue (PODC 1996) under manual SMR —
    the structure hazard pointers were originally demonstrated on, and
    a second queue shape (single dummy node, no back-links) to contrast
    with the paper's doubly-linked queue.

    Protection discipline (Michael 2004): the dequeuer protects the
    head node, then its successor, and must re-validate [head == h]
    after each protection before dereferencing — the successor of a
    stale head may already be reclaimed under the pointer/interval
    schemes. The re-validation is performed unconditionally; for
    EBR/Hyaline it is redundant but harmless. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { value : int; next : link Atomic.t }
  and link = node Ar.managed option

  type t = { ar : Ar.t; head : link Atomic.t; tail : link Atomic.t }
  type ctx = { t : t; pid : int }

  let mk_node ar ~pid v = Ar.alloc ar ~pid { value = v; next = Atomic.make None }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    let ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads () in
    let dummy = mk_node ar ~pid:0 min_int in
    { ar; head = Atomic.make (Some dummy); tail = Atomic.make (Some dummy) }

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some m -> Ident.of_val m

  let rec link_cas cell expected desired =
    let cur = Atomic.get cell in
    let eq =
      match (cur, expected) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    if not eq then false
    else if Atomic.compare_and_set cell cur desired then true
    else link_cas cell expected desired

  let link_is cell v =
    match (Atomic.get cell, v) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false

  (* Protect the destination of an anchor cell (head or tail), or of a
     node's [next] link. *)
  let protect s cell =
    let ((_, g) as p) = Ar.protect s ~ident:ident_of cell in
    if Ar.guarded g then p else failwith "ms_queue: out of announcement slots"

  (* Each retry releases the attempt's guards first, keeping the slot
     budget at two. *)
  let rec enqueue_in s c nu =
    let lt, g = protect s c.t.tail in
    match lt with
    | None -> failwith "ms_queue: null tail"
    | Some tm ->
        (* Validate tail still = tm before trusting it. *)
        if not (link_is c.t.tail lt) then begin
          Ar.release s g;
          enqueue_in s c nu
        end
        else begin
          let tnode = Ar.get s g tm in
          match Atomic.get tnode.next with
          | None ->
              if link_cas tnode.next None (Some nu) then
                (* Swing the tail; failure means someone helped. *)
                ignore (link_cas c.t.tail (Some tm) (Some nu))
              else begin
                Ar.release s g;
                enqueue_in s c nu
              end
          | Some nx ->
              (* Help a lagging enqueuer advance the tail. *)
              ignore (link_cas c.t.tail (Some tm) (Some nx));
              Ar.release s g;
              enqueue_in s c nu
        end

  let enqueue c v =
    Ar.scope c.t.ar ~pid:c.pid
      { f = (fun s -> enqueue_in s c (mk_node c.t.ar ~pid:c.pid v)) }

  let rec dequeue_in s c =
    let lh, gh = protect s c.t.head in
    match lh with
    | None -> failwith "ms_queue: null head"
    | Some hm ->
        if not (link_is c.t.head lh) then begin
          Ar.release s gh;
          dequeue_in s c
        end
        else begin
          let hnode = Ar.get s gh hm in
          let lt = Atomic.get c.t.tail in
          match Atomic.get hnode.next with
          | None -> None
          | Some nm as next ->
              (* Protect the successor, then re-validate the head: a
                 stale head's successor may already be reclaimed. Once
                 set, [hnode.next] never changes, so protecting through
                 it protects [nm]. *)
              let _, gn = protect s hnode.next in
              if not (link_is c.t.head lh) then retry s c gh gn
              else if match lt with Some tm -> tm == hm | None -> false then begin
                (* Tail is lagging behind a non-empty queue: help. *)
                ignore (link_cas c.t.tail lt next);
                retry s c gh gn
              end
              else begin
                let v = (Ar.get s gn nm).value in
                (* A node enters [head] in the one [Some] box its
                   enqueuer linked, so the CAS on the value [protect]
                   read needs no structural retry. *)
                match Ar.unlink s c.t.head ~seen:lh ~desired:next hm with
                | Some w ->
                    (* Releasing [gh] first lets this eject reclaim the
                       old head; [gn] outlives it until the scope
                       exits. *)
                    Ar.retire_free s w gh;
                    Ar.eject c.t.ar ~pid:c.pid;
                    Some v
                | None -> retry s c gh gn
              end
        end

  and retry s c gh gn =
    Ar.release s gn;
    Ar.release s gh;
    dequeue_in s c

  let dequeue c = Ar.scope c.t.ar ~pid:c.pid { f = (fun s -> dequeue_in s c) }

  let flush c = Ar.flush c.t.ar ~pid:c.pid
  let live_objects t = Simheap.live (Ar.heap t.ar)

  let teardown t =
    let rec go = function
      | None -> ()
      | Some m ->
          let next = Atomic.get (Ar.quiescent m).next in
          if Ar.is_live m then Ar.discard m;
          go next
    in
    go (Atomic.get t.head);
    Atomic.set t.head None;
    Atomic.set t.tail None;
    Ar.quiesce t.ar
end
