(** Ramalhete–Correia's doubly-linked lock-free queue implemented with
    our atomic weak pointers — a line-by-line transcription of the
    paper's Fig 10.

    [next] edges are atomic {e shared} pointers (they own the nodes);
    [prev] edges are atomic {e weak} pointers, which is exactly what
    breaks the prev/next reference cycle that would otherwise leak
    every node (paper §4.6). The queue keeps one dummy node; [head]
    points at the last dequeued (dummy) node and [tail] at the last
    enqueued node. *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name ^ "-weak"

  type node = { value : int; next : node R.asp; prev : node R.awp }

  type t = { rt : R.rt; head : node R.asp; tail : node R.asp }
  type ctx = { t : t; th : R.thr }

  let destroy th (n : node) =
    R.Asp.clear th n.next;
    R.Awp.clear th n.prev

  let mk_node th value =
    R.Shared.make th ~destroy { value; next = R.Asp.make_null (); prev = R.Awp.make_null () }

  let create ~max_threads () =
    let rt = R.create ~support_weak:true ~max_threads () in
    let th = R.thread rt 0 in
    let dummy = mk_node th min_int in
    let head = R.Asp.make th (R.Shared.ptr dummy) in
    let tail = R.Asp.make th (R.Shared.ptr dummy) in
    R.Shared.drop th dummy;
    { rt; head; tail }

  let ctx t pid = { t; th = R.thread t.rt pid }

  (* Fig 10 enqueue's loop: swing the tail to [new_node], retrying by
     tail call. *)
  let rec swing_tail c new_node =
    let th = c.th in
    let ltail = R.Asp.get_snapshot th c.t.tail in
    let tl = R.Snapshot.get ltail in
    (* Publish our prev pointer before trying to swing the tail. *)
    R.Awp.store th (R.Shared.get new_node).prev (R.Snapshot.ptr ltail ~tag:0);
    (* Help the previous enqueuer set its next pointer (Fig 10
       lines 16-18). *)
    let lprev = R.Awp.get_snapshot th tl.prev in
    (if not (R.Weak_snapshot.is_null lprev) then begin
       let pn = R.Weak_snapshot.get lprev in
       if R.Ptr.is_null (R.Asp.unsafe_ptr pn.next) then
         ignore
           (R.Asp.compare_and_swap th pn.next ~expected:R.Ptr.null
              ~desired:(R.Snapshot.ptr ltail ~tag:0))
     end);
    R.Weak_snapshot.drop th lprev;
    if
      R.Asp.compare_and_swap th c.t.tail
        ~expected:(R.Snapshot.ptr ltail ~tag:0)
        ~desired:(R.Shared.ptr new_node)
    then begin
      (* Fig 10 line 20: link the old tail forward to us. *)
      ignore
        (R.Asp.compare_and_swap th tl.next ~expected:R.Ptr.null
           ~desired:(R.Shared.ptr new_node));
      R.Snapshot.drop th ltail
    end
    else begin
      R.Snapshot.drop th ltail;
      swing_tail c new_node
    end

  (* Fig 10 enqueue, a section body. *)
  let enqueue_in c v =
    let new_node = mk_node c.th v in
    swing_tail c new_node;
    R.Shared.drop c.th new_node

  (* Fig 10 dequeue, a section body. *)
  let rec dequeue_in c () =
    let th = c.th in
    let lhead = R.Asp.get_snapshot th c.t.head in
    let hd = R.Snapshot.get lhead in
    let lnext = R.Asp.get_snapshot th hd.next in
    if R.Snapshot.is_null lnext then begin
      R.Snapshot.drop th lnext;
      R.Snapshot.drop th lhead;
      None
    end
    else if
      R.Asp.compare_and_swap th c.t.head
        ~expected:(R.Snapshot.ptr lhead ~tag:0)
        ~desired:(R.Snapshot.ptr lnext ~tag:0)
    then begin
      let v = (R.Snapshot.get lnext).value in
      R.Snapshot.drop th lnext;
      R.Snapshot.drop th lhead;
      Some v
    end
    else begin
      R.Snapshot.drop th lnext;
      R.Snapshot.drop th lhead;
      dequeue_in c ()
    end

  let enqueue c v = R.critically c.th enqueue_in c v
  let dequeue c = R.critically c.th dequeue_in c ()

  let flush c = R.flush c.th
  let live_objects t = R.live_objects t.rt
  let retired_backlog t = R.retired_backlog t.rt

  let teardown t =
    let th = R.thread t.rt 0 in
    R.Asp.clear th t.head;
    R.Asp.clear th t.tail;
    R.quiesce t.rt
end
