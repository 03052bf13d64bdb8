(** Treiber's stack under automatic reference counting — compare with
    {!Treiber_stack_manual}: the pop path has no retire, no eject, and
    no reclamation bookkeeping at all; the unlinking CAS defers the
    decrement and the node chain unwinds through destroy hooks. *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name

  type node = { value : int; next : node R.asp }

  type t = { rt : R.rt; top : node R.asp }
  type ctx = { t : t; th : R.thr }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    {
      rt = R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~max_threads ();
      top = R.Asp.make_null ();
    }

  let ctx t pid = { t; th = R.thread t.rt pid }

  (* The section bodies retry by tail call. *)
  let rec push_in c v =
    let th = c.th in
    let top = R.Asp.get_snapshot th c.t.top in
    let fresh =
      R.Shared.make th
        ~destroy:(fun th n -> R.Asp.clear th n.next)
        { value = v; next = R.Asp.make th (R.Snapshot.ptr top ~tag:0) }
    in
    let ok =
      R.Asp.compare_and_swap th c.t.top ~expected:(R.Snapshot.ptr top ~tag:0)
        ~desired:(R.Shared.ptr fresh)
    in
    R.Shared.drop th fresh;
    R.Snapshot.drop th top;
    if not ok then push_in c v

  let rec pop_in c () =
    let th = c.th in
    let top = R.Asp.get_snapshot th c.t.top in
    if R.Snapshot.is_null top then begin
      R.Snapshot.drop th top;
      None
    end
    else begin
      let node = R.Snapshot.get top in
      let next = R.Asp.get_snapshot th node.next in
      let ok =
        R.Asp.compare_and_swap th c.t.top ~expected:(R.Snapshot.ptr top ~tag:0)
          ~desired:(R.Snapshot.ptr next ~tag:0)
      in
      R.Snapshot.drop th next;
      if ok then begin
        let v = node.value in
        R.Snapshot.drop th top;
        Some v
      end
      else begin
        R.Snapshot.drop th top;
        pop_in c ()
      end
    end

  let push c v = R.critically c.th push_in c v
  let pop c = R.critically c.th pop_in c ()
  let flush c = R.flush c.th

  (* The nodes from [snap] down, at quiescence. *)
  let rec count_from th acc snap =
    if R.Snapshot.is_null snap then begin
      R.Snapshot.drop th snap;
      acc
    end
    else begin
      let next = R.Asp.get_snapshot th (R.Snapshot.get snap).next in
      R.Snapshot.drop th snap;
      count_from th (acc + 1) next
    end

  let size_from th top = count_from th 0 (R.Asp.get_snapshot th top)

  let size t =
    let th = R.thread t.rt 0 in
    R.critically th size_from th t.top

  let live_objects t = R.live_objects t.rt
  let retired_backlog t = R.retired_backlog t.rt

  let teardown t =
    let th = R.thread t.rt 0 in
    R.Asp.clear th t.top;
    R.quiesce t.rt
end
