(** Michael–Scott queue under automatic reference counting. Compare
    with {!Ms_queue_manual}: no retire on dequeue, no head/successor
    revalidation dance — snapshots make a stale head's successor safe
    to read (its cell still owns a count unit), and the head CAS's
    deferred decrement reclaims the old dummy. *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name

  type node = { value : int; next : node R.asp }

  type t = { rt : R.rt; head : node R.asp; tail : node R.asp }
  type ctx = { t : t; th : R.thr }

  let mk_node th v =
    R.Shared.make th
      ~destroy:(fun th n -> R.Asp.clear th n.next)
      { value = v; next = R.Asp.make_null () }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    let rt = R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~max_threads () in
    let th = R.thread rt 0 in
    let dummy = mk_node th min_int in
    let t =
      {
        rt;
        head = R.Asp.make th (R.Shared.ptr dummy);
        tail = R.Asp.make th (R.Shared.ptr dummy);
      }
    in
    R.Shared.drop th dummy;
    t

  let ctx t pid = { t; th = R.thread t.rt pid }

  (* Link [nu] after the last node, retrying by tail call. *)
  let rec append c nu =
    let th = c.th in
    let lt = R.Asp.get_snapshot th c.t.tail in
    let tnode = R.Snapshot.get lt in
    let nx = R.Asp.get_snapshot th tnode.next in
    if R.Snapshot.is_null nx then begin
      if
        R.Asp.compare_and_swap th tnode.next ~expected:R.Ptr.null
          ~desired:(R.Shared.ptr nu)
      then begin
        ignore
          (R.Asp.compare_and_swap th c.t.tail ~expected:(R.Snapshot.ptr lt ~tag:0)
             ~desired:(R.Shared.ptr nu));
        R.Snapshot.drop th nx;
        R.Snapshot.drop th lt
      end
      else begin
        R.Snapshot.drop th nx;
        R.Snapshot.drop th lt;
        append c nu
      end
    end
    else begin
      (* Help the lagging enqueuer. *)
      ignore
        (R.Asp.compare_and_swap th c.t.tail ~expected:(R.Snapshot.ptr lt ~tag:0)
           ~desired:(R.Snapshot.ptr nx ~tag:0));
      R.Snapshot.drop th nx;
      R.Snapshot.drop th lt;
      append c nu
    end

  (* The section bodies. *)
  let enqueue_in c v =
    let nu = mk_node c.th v in
    append c nu;
    R.Shared.drop c.th nu

  let rec dequeue_in c () =
    let th = c.th in
    let lh = R.Asp.get_snapshot th c.t.head in
    let hnode = R.Snapshot.get lh in
    let next = R.Asp.get_snapshot th hnode.next in
    if R.Snapshot.is_null next then begin
      R.Snapshot.drop th next;
      R.Snapshot.drop th lh;
      None
    end
    else begin
      (* Help a lagging tail before swinging the head past it. *)
      let lt = R.Asp.unsafe_ptr c.t.tail in
      if R.Ptr.same_object lt (R.Snapshot.ptr lh ~tag:0) then
        ignore
          (R.Asp.compare_and_swap th c.t.tail ~expected:(R.Snapshot.ptr lh ~tag:0)
             ~desired:(R.Snapshot.ptr next ~tag:0));
      if
        R.Asp.compare_and_swap th c.t.head ~expected:(R.Snapshot.ptr lh ~tag:0)
          ~desired:(R.Snapshot.ptr next ~tag:0)
      then begin
        let v = (R.Snapshot.get next).value in
        R.Snapshot.drop th next;
        R.Snapshot.drop th lh;
        Some v
      end
      else begin
        R.Snapshot.drop th next;
        R.Snapshot.drop th lh;
        dequeue_in c ()
      end
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
