(** Harris–Michael list set under {e automatic} reference counting —
    the RC side of the paper's list benchmark (Fig 13a), written
    against the scheme-agnostic {!Cdrc.Intf.S}, so the same code is
    RCEBR, RCIBR, RCHyaline, RCHP, or RCHE depending on instantiation.

    Note what is {e absent} compared to {!Hm_list_manual}: no [retire]
    calls, no announcement bookkeeping, no [*prev == cur] revalidation
    — unlinking a node through a CAS automatically defers the
    decrement of its reference count, and snapshots guarantee their
    target stays readable (the paper's Fig 1 contrast).

    The chain (node, cursor, [search], [unlink], [fold]) is shared with
    the KV store's buckets, whose nodes carry an atomic value slot where
    the set's carry [()]; the search's {!Sched.yield} point (free outside
    a controller) lets the DFS explorer interleave both mid-protocol. *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name

  (* A chain node; [value] is what it carries besides its key. *)
  type 'v node = { key : int; value : 'v; next : 'v node R.asp }

  type t = { rt : R.rt; head : unit node R.asp }
  type ctx = { t : t; th : R.thr }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    {
      rt =
        R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~max_threads ();
      head = R.Asp.make_null ();
    }

  let ctx t pid = { t; th = R.thread t.rt pid }

  let mk_node th key next_ptr =
    R.Shared.make th
      ~destroy:(fun th v -> R.Asp.clear th v.next)
      { key; value = (); next = R.Asp.make th next_ptr }

  type 'v cursor = {
    found : bool;
    prev : 'v node R.asp; (* the cell that links to [cur] *)
    prev_s : 'v node R.snapshot; (* keeps prev's node alive; null for head *)
    cur : 'v node R.snapshot;
  }

  let discard th cu =
    R.Snapshot.drop th cu.prev_s;
    R.Snapshot.drop th cu.cur

  (* Position at the first node with key ≥ [key], helping unlink
     next-marked nodes on the way; a failed unlink restarts from the
     head. Each hop passes the cursor's fields on as arguments. *)
  let rec search th head key =
    let prev_s = R.Snapshot.null () in
    search_from th head key head prev_s (R.Asp.get_snapshot th head)

  and search_from th head key prev prev_s cur =
    Sched.yield ();
    if R.Snapshot.is_null cur then { found = false; prev; prev_s; cur }
    else begin
      let node = R.Snapshot.get cur in
      let next = R.Asp.get_snapshot th node.next in
      if R.Snapshot.is_marked next then
        (* cur is logically deleted: unlink it. The CAS's deferred
           decrement replaces the whole retire loop of the manual
           version. *)
        if
          R.Asp.compare_and_swap th prev
            ~expected:(R.Snapshot.ptr cur ~tag:0)
            ~desired:(R.Snapshot.ptr next ~tag:0)
        then begin
          R.Snapshot.drop th cur;
          search_from th head key prev prev_s next
        end
        else begin
          R.Snapshot.drop th next;
          R.Snapshot.drop th cur;
          R.Snapshot.drop th prev_s;
          search th head key
        end
      else if node.key >= key then begin
        R.Snapshot.drop th next;
        { found = node.key = key; prev; prev_s; cur }
      end
      else begin
        R.Snapshot.drop th prev_s;
        search_from th head key node.next cur next
      end
    end

  (* Owned deletion of [cu.cur] once the caller has marked its [next]
     field, whose target the snapshot [next] holds (dropped here): CAS
     [cu.prev] past it, or finish by a helping re-search for [key]. *)
  let unlink th head cu key next =
    if
      not
        (R.Asp.compare_and_swap th cu.prev
           ~expected:(R.Snapshot.ptr cu.cur ~tag:0)
           ~desired:(R.Snapshot.ptr next ~tag:0))
    then begin
      let cu2 = search th head key in
      discard th cu2
    end;
    R.Snapshot.drop th next

  (* Read-only walk inside the caller's section: [f th acc node] folds
     over every node whose [next] is unmarked; marked (physically
     dying) nodes are passed through without helping. *)
  let rec fold_from th f prev_s cur acc =
    if R.Snapshot.is_null cur then begin
      R.Snapshot.drop th cur;
      R.Snapshot.drop th prev_s;
      acc
    end
    else begin
      let node = R.Snapshot.get cur in
      let next = R.Asp.get_snapshot th node.next in
      let acc = if R.Snapshot.is_marked next then acc else f th acc node in
      R.Snapshot.drop th prev_s;
      fold_from th f cur next acc
    end

  let fold th head f acc =
    let prev_s = R.Snapshot.null () in
    fold_from th f prev_s (R.Asp.get_snapshot th head) acc

  let insert_at c head key =
    let th = c.th in
    let rec go () =
      let cu = search th head key in
      if cu.found then begin
        discard th cu;
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
          discard th cu;
          true
        end
        else begin
          R.Shared.drop th fresh;
          discard th cu;
          go ()
        end
      end
    in
    go ()

  let remove_at c head key =
    let th = c.th in
    let rec go () =
      let cu = search th head key in
      if not cu.found then begin
        discard th cu;
        false
      end
      else begin
        let node = R.Snapshot.get cu.cur in
        let next = R.Asp.get_snapshot th node.next in
        if R.Snapshot.is_marked next then begin
          R.Snapshot.drop th next;
          discard th cu;
          go ()
        end
        else if R.Asp.try_mark th node.next ~expected:(R.Snapshot.ptr next ~tag:0) then begin
          (* Owned deletion: attempt the unlink; a later search finishes
             it otherwise. *)
          unlink th head cu key next;
          discard th cu;
          true
        end
        else begin
          R.Snapshot.drop th next;
          discard th cu;
          go ()
        end
      end
    in
    go ()

  (* Drop [prev_s], the snapshot a read-only walk held before [cur],
     unless the walk's first hop passed [cur] as its own predecessor:
     the walks start from one snapshot, not from a null placeholder. *)
  let drop_pred th prev_s cur = if prev_s != cur then R.Snapshot.drop th prev_s

  (* The read-only walks' exit: drop the two snapshots they hold. *)
  let finish th prev_s cur result =
    R.Snapshot.drop th cur;
    drop_pred th prev_s cur;
    result

  (* Read-only traversal: marked nodes are passed through. *)
  let rec contains_from th key prev_s cur =
    if R.Snapshot.is_null cur then finish th prev_s cur false
    else begin
      let node = R.Snapshot.get cur in
      if node.key > key then finish th prev_s cur false
      else if node.key = key then
        (* Only the mark bit is needed: an unprotected view read
           suffices (no dereference). *)
        finish th prev_s cur (not (R.Ptr.is_marked (R.Asp.unsafe_ptr node.next)))
      else begin
        let next = R.Asp.get_snapshot th node.next in
        drop_pred th prev_s cur;
        contains_from th key cur next
      end
    end

  let contains_at c head key =
    let first = R.Asp.get_snapshot c.th head in
    contains_from c.th key first first

  let rec range_from th lo hi prev_s cur count =
    if R.Snapshot.is_null cur then finish th prev_s cur count
    else begin
      let node = R.Snapshot.get cur in
      if node.key >= hi then finish th prev_s cur count
      else begin
        let next = R.Asp.get_snapshot th node.next in
        let count = if node.key >= lo && not (R.Snapshot.is_marked next) then count + 1 else count in
        drop_pred th prev_s cur;
        range_from th lo hi cur next count
      end
    end

  let range_at c head lo hi =
    let first = R.Asp.get_snapshot c.th head in
    range_from c.th lo hi first first 0

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  let insert c key = R.critically c.th (fun () -> insert_at c c.t.head key)
  let remove c key = R.critically c.th (fun () -> remove_at c c.t.head key)

  (* The reads open and close their section with [critically]'s two
     halves, so that a read allocates its snapshots alone. *)
  let abort c e =
    let bt = Printexc.get_raw_backtrace () in
    R.end_critical_section c.th;
    Printexc.raise_with_backtrace e bt

  let contains c key =
    R.begin_critical_section c.th;
    match contains_at c c.t.head key with
    | r ->
        R.end_critical_section c.th;
        r
    | exception e -> abort c e

  let range_query c lo hi =
    R.begin_critical_section c.th;
    match range_at c c.t.head lo hi with
    | r ->
        R.end_critical_section c.th;
        r
    | exception e -> abort c e

  let flush c = R.flush c.th

  let size_at rt head =
    let th = R.thread rt 0 in
    R.critically th (fun () -> fold th head (fun _ n _ -> n + 1) 0)

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
