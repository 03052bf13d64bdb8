(** Harris–Michael list set under {e automatic} reference counting —
    the RC side of the paper's list benchmark (Fig 13a), written
    against the scheme-agnostic {!Cdrc.Intf.S}, so the same code is
    RCEBR, RCIBR, RCHyaline, RCHP, or RCHE depending on instantiation.

    Note what is {e absent} compared to {!Hm_list_manual}: no [retire]
    calls, no announcement bookkeeping, no [*prev == cur] revalidation
    — unlinking a node through a CAS automatically defers the
    decrement of its reference count, and snapshots guarantee their
    target stays readable (the paper's Fig 1 contrast). *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name

  type node = { key : int; next : node R.asp }

  type t = { rt : R.rt; head : node R.asp }
  type ctx = { t : t; th : R.thr }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    {
      rt =
        R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~max_threads ();
      head = R.Asp.make_null ();
    }

  let ctx t pid = { t; th = R.thread t.rt pid }

  let mk_node th key next_ptr =
    R.Shared.make th ~destroy:(fun th v -> R.Asp.clear th v.next) { key; next = R.Asp.make th next_ptr }

  type cursor = {
    found : bool;
    prev : node R.asp; (* the cell that links to [cur] *)
    prev_s : node R.snapshot; (* keeps prev's node alive; null for head *)
    cur : node R.snapshot;
  }

  let discard c cu =
    R.Snapshot.drop c.th cu.prev_s;
    R.Snapshot.drop c.th cu.cur

  exception Restart

  let rec search c head key =
    match search_once c head key with cu -> cu | exception Restart -> search c head key

  and search_once c head key =
    let th = c.th in
    let prev = ref head in
    let prev_s = ref (R.Snapshot.null ()) in
    let cur = ref (R.Asp.get_snapshot th head) in
    let abort () =
      R.Snapshot.drop th !cur;
      R.Snapshot.drop th !prev_s;
      raise Restart
    in
    let rec loop () =
      if R.Snapshot.is_null !cur then
        { found = false; prev = !prev; prev_s = !prev_s; cur = !cur }
      else begin
        let node = R.Snapshot.get !cur in
        let next = R.Asp.get_snapshot th node.next in
        if R.Snapshot.is_marked next then begin
          (* cur is logically deleted: unlink it. The CAS's deferred
             decrement replaces the whole retire loop of the manual
             version. *)
          if
            R.Asp.compare_and_swap th !prev
              ~expected:(R.Snapshot.ptr !cur ~tag:0)
              ~desired:(R.Snapshot.ptr next ~tag:0)
          then begin
            R.Snapshot.drop th !cur;
            cur := next;
            loop ()
          end
          else begin
            R.Snapshot.drop th next;
            abort ()
          end
        end
        else if node.key >= key then begin
          R.Snapshot.drop th next;
          { found = node.key = key; prev = !prev; prev_s = !prev_s; cur = !cur }
        end
        else begin
          R.Snapshot.drop th !prev_s;
          prev_s := !cur;
          prev := node.next;
          cur := next;
          loop ()
        end
      end
    in
    loop ()

  let insert_at c head key =
    let th = c.th in
    let rec go () =
      let cu = search c head key in
      if cu.found then begin
        discard c cu;
        false
      end
      else begin
        let fresh = mk_node th key (R.Snapshot.ptr cu.cur ~tag:0) in
        if
          R.Asp.compare_and_swap th cu.prev
            ~expected:(R.Snapshot.ptr cu.cur ~tag:0)
            ~desired:(R.Shared.ptr fresh)
        then begin
          R.Shared.drop th fresh;
          discard c cu;
          true
        end
        else begin
          R.Shared.drop th fresh;
          discard c cu;
          go ()
        end
      end
    in
    go ()

  let remove_at c head key =
    let th = c.th in
    let rec go () =
      let cu = search c head key in
      if not cu.found then begin
        discard c cu;
        false
      end
      else begin
        let node = R.Snapshot.get cu.cur in
        let next = R.Asp.get_snapshot th node.next in
        if R.Snapshot.is_marked next then begin
          R.Snapshot.drop th next;
          discard c cu;
          go ()
        end
        else if R.Asp.try_mark th node.next ~expected:(R.Snapshot.ptr next ~tag:0) then begin
          (* Owned deletion: attempt the unlink; a later search finishes
             it otherwise. *)
          if
            not
              (R.Asp.compare_and_swap th cu.prev
                 ~expected:(R.Snapshot.ptr cu.cur ~tag:0)
                 ~desired:(R.Snapshot.ptr next ~tag:0))
          then begin
            let cu2 = search c head key in
            discard c cu2
          end;
          R.Snapshot.drop th next;
          discard c cu;
          true
        end
        else begin
          R.Snapshot.drop th next;
          discard c cu;
          go ()
        end
      end
    in
    go ()

  (* Read-only traversal: marked nodes are passed through. *)
  let contains_at c head key =
    let th = c.th in
    let prev_s = ref (R.Snapshot.null ()) in
    let cur = ref (R.Asp.get_snapshot th head) in
    let finish result =
      R.Snapshot.drop th !cur;
      R.Snapshot.drop th !prev_s;
      result
    in
    let rec loop () =
      if R.Snapshot.is_null !cur then finish false
      else begin
        let node = R.Snapshot.get !cur in
        if node.key > key then finish false
        else if node.key = key then
          (* Only the mark bit is needed: an unprotected view read
             suffices (no dereference). *)
          finish (not (R.Ptr.is_marked (R.Asp.unsafe_ptr node.next)))
        else begin
          let next = R.Asp.get_snapshot th node.next in
          R.Snapshot.drop th !prev_s;
          prev_s := !cur;
          cur := next;
          loop ()
        end
      end
    in
    loop ()

  let range_at c head lo hi =
    let th = c.th in
    let prev_s = ref (R.Snapshot.null ()) in
    let cur = ref (R.Asp.get_snapshot th head) in
    let count = ref 0 in
    let finish () =
      R.Snapshot.drop th !cur;
      R.Snapshot.drop th !prev_s;
      !count
    in
    let rec loop () =
      if R.Snapshot.is_null !cur then finish ()
      else begin
        let node = R.Snapshot.get !cur in
        if node.key >= hi then finish ()
        else begin
          let next = R.Asp.get_snapshot th node.next in
          if node.key >= lo && not (R.Snapshot.is_marked next) then incr count;
          R.Snapshot.drop th !prev_s;
          prev_s := !cur;
          cur := next;
          loop ()
        end
      end
    in
    loop ()

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  let insert c key = R.critically c.th (fun () -> insert_at c c.t.head key)
  let remove c key = R.critically c.th (fun () -> remove_at c c.t.head key)
  let contains c key = R.critically c.th (fun () -> contains_at c c.t.head key)
  let range_query c lo hi = R.critically c.th (fun () -> range_at c c.t.head lo hi)
  let flush c = R.flush c.th

  let size_at rt head =
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let cur = ref (R.Asp.get_snapshot th head) in
        let n = ref 0 in
        let rec loop () =
          if R.Snapshot.is_null !cur then !n
          else begin
            let node = R.Snapshot.get !cur in
            let next = R.Asp.get_snapshot th node.next in
            if not (R.Snapshot.is_marked next) then incr n;
            R.Snapshot.drop th !cur;
            cur := next;
            loop ()
          end
        in
        loop ())

  let size t = size_at t.rt t.head
  let live_objects t = R.live_objects t.rt
  let peak_objects t = R.peak_objects t.rt
  let reset_peak t = Simheap.reset_peak (R.heap t.rt)

  let teardown t =
    let th = R.thread t.rt 0 in
    R.Asp.clear th t.head;
    R.quiesce t.rt
  let uaf_events _ = 0

  let snapshot_stats t = Some (R.snapshot_stats t.rt)
  let retired_backlog t = R.retired_backlog t.rt
  let stalled t = R.stalled t.rt
end
