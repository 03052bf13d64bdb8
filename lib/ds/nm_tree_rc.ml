(** Natarajan–Mittal external BST under automatic reference counting —
    the paper's Fig 1b: compare {!Nm_tree_manual.Make.cleanup}, whose
    hand-written chain-retirement loop simply does not exist here. The
    ancestor CAS's deferred decrement releases the excised chain, and
    each node's destroy hook releases its children, so the whole
    subtree unwinds automatically (and iteratively, through the
    runtime's pending queue).

    Unlike the manual version, this tree is safe under {e every} scheme
    including RCHP and RCIBR — the paper points this out as an
    advantage (§5.1): snapshots protect reference counts, so traversing
    frozen edges of removed nodes can never touch freed memory.

    Range queries hold a snapshot per path node; under RCHP the
    announcement slots run out and [get_snapshot] transparently falls
    back to reference-count increments — the exact mechanism behind
    RCHP's collapse in Fig 11. *)

module Make (R : Cdrc.Intf.S) = struct
  let name = R.scheme_name

  (* Edge tag bits: bit 0 = flag, bit 1 = tag. *)
  let fl = 1
  let tg = 2

  type node = { key : int; left : node R.asp; right : node R.asp }

  let inf2 = max_int
  let inf1 = max_int - 1

  type t = { rt : R.rt; root : node R.shared }
  type ctx = { t : t; th : R.thr }

  let destroy th (v : node) =
    R.Asp.clear th v.left;
    R.Asp.clear th v.right

  let mk_leaf th key =
    R.Shared.make th ~destroy { key; left = R.Asp.make_null (); right = R.Asp.make_null () }

  let mk_internal th key (l : node R.ptr) (r : node R.ptr) =
    R.Shared.make th ~destroy { key; left = R.Asp.make th l; right = R.Asp.make th r }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    let rt = R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~max_threads () in
    let th = R.thread rt 0 in
    let l_inf1 = mk_leaf th inf1 in
    let l_inf2a = mk_leaf th inf2 in
    let l_inf2b = mk_leaf th inf2 in
    let s = mk_internal th inf1 (R.Shared.ptr l_inf1) (R.Shared.ptr l_inf2a) in
    let r = mk_internal th inf2 (R.Shared.ptr s) (R.Shared.ptr l_inf2b) in
    List.iter (R.Shared.drop th) [ l_inf1; l_inf2a; l_inf2b; s ];
    { rt; root = r }

  let ctx t pid = { t; th = R.thread t.rt pid }
  let uaf_events _ = 0
  let is_leaf (n : node) = R.Ptr.is_null (R.Asp.unsafe_ptr n.left)

  (* Seek record: snapshots pin ancestor, parent, and leaf; the
     successor is only ever compared / CAS-expected, so a bare view
     suffices (views carry identity, not access). *)
  type seek_record = {
    anc : node R.snapshot;
    suc : node R.ptr;
    par : node R.snapshot;
    leaf : node R.snapshot;
  }

  let discard c s =
    R.Snapshot.drop c.th s.anc;
    R.Snapshot.drop c.th s.par;
    R.Snapshot.drop c.th s.leaf

  (* The R sentinel is permanently pinned by [t.root], so it needs no
     snapshot; a null snapshot in the [anc] slot denotes R and is
     resolved by [anc_cell]. Each hop passes the record on as
     arguments: [cur] is the node below [par], reached over an edge
     whose tag bits it carries. *)
  let rec seek_from th key anc suc par cur =
    let n = R.Snapshot.get cur in
    if is_leaf n then { anc; suc; par; leaf = cur }
    else if R.Snapshot.tag cur land tg = 0 then begin
      (* Edge par->cur untagged: par becomes ancestor, cur becomes
         successor. The par snapshot moves to the anc slot. *)
      R.Snapshot.drop th anc;
      descend th key par (R.Snapshot.ptr cur ~tag:0) cur n
    end
    else begin
      R.Snapshot.drop th par;
      descend th key anc suc cur n
    end

  and descend th key anc suc par n =
    let next = R.Asp.get_snapshot th (if key < n.key then n.left else n.right) in
    if R.Snapshot.is_null next then begin
      (* Cannot happen: internal nodes always have two children and
         snapshots pin their targets. *)
      R.Snapshot.drop th next;
      failwith "nm_tree_rc: null child of internal node"
    end;
    seek_from th key anc suc par next

  (* anc = R (represented by a null snapshot), suc = S, par = S. *)
  let seek c key =
    let th = c.th in
    let rn = R.Shared.get c.t.root in
    let s_snap = R.Asp.get_snapshot th rn.left in
    let anc = R.Snapshot.null () in
    let sn = R.Snapshot.get s_snap in
    seek_from th key anc (R.Snapshot.ptr s_snap ~tag:0) s_snap
      (R.Asp.get_snapshot th sn.left)

  (* Ancestor child cell toward [key]; a null anc snapshot denotes the
     root sentinel R. *)
  let anc_cell c (s : seek_record) key =
    let n =
      if R.Snapshot.is_null s.anc then R.Shared.get c.t.root else R.Snapshot.get s.anc
    in
    if key < n.key then n.left else n.right

  (* Tag the sibling edge in [cell] (freeze its pointer), and return a
     snapshot of the tagged edge. The CAS desired value must be backed
     by an owned reference, hence the snapshot. *)
  let rec tag_sibling th cell =
    let es = R.Asp.get_snapshot th cell in
    let t0 = R.Snapshot.tag es in
    if t0 land tg <> 0 then es
    else if
      R.Asp.compare_and_swap th cell ~expected:(R.Snapshot.ptr es)
        ~desired:(R.Snapshot.ptr es ~tag:(t0 lor tg))
    then begin
      R.Snapshot.drop th es;
      R.Asp.get_snapshot th cell
    end
    else begin
      R.Snapshot.drop th es;
      tag_sibling th cell
    end

  (* Fig 1b cleanup: note the absence of any retire loop — the
     compare_and_swap defers the decrement of the excised chain and
     destroy hooks do the rest. *)
  let cleanup c key (s : seek_record) =
    let th = c.th in
    let par = R.Snapshot.get s.par in
    let child_cell, sibling_cell =
      if key < par.key then (par.left, par.right) else (par.right, par.left)
    in
    let sibling_cell =
      if R.Ptr.tag (R.Asp.unsafe_ptr child_cell) land fl <> 0 then sibling_cell
      else child_cell
    in
    let es = tag_sibling th sibling_cell in
    let acell = anc_cell c s key in
    let ok =
      R.Asp.compare_and_swap th acell
        ~expected:(R.Ptr.with_tag s.suc 0)
        ~desired:(R.Snapshot.ptr es ~tag:(R.Snapshot.tag es land fl))
    in
    R.Snapshot.drop th es;
    ok

  (* The writes retry by tail call from a fresh seek. *)
  let rec insert_op c key =
    let th = c.th in
    let s = seek c key in
    let leaf = R.Snapshot.get s.leaf in
    if leaf.key = key then begin
      discard c s;
      false
    end
    else begin
      let par = R.Snapshot.get s.par in
      let cell = if key < par.key then par.left else par.right in
      let new_leaf = mk_leaf th key in
      let ikey = max key leaf.key in
      let lp, rp =
        if key < leaf.key then (R.Shared.ptr new_leaf, R.Snapshot.ptr s.leaf ~tag:0)
        else (R.Snapshot.ptr s.leaf ~tag:0, R.Shared.ptr new_leaf)
      in
      let new_internal = mk_internal th ikey lp rp in
      let ok =
        R.Asp.compare_and_swap th cell
          ~expected:(R.Snapshot.ptr s.leaf ~tag:0)
          ~desired:(R.Shared.ptr new_internal)
      in
      R.Shared.drop th new_leaf;
      R.Shared.drop th new_internal;
      if ok then begin
        discard c s;
        true
      end
      else begin
        let e = R.Asp.unsafe_ptr cell in
        if R.Ptr.same_object e (R.Snapshot.ptr s.leaf ~tag:0) && R.Ptr.tag e <> 0 then
          ignore (cleanup c key s);
        discard c s;
        insert_op c key
      end
    end

  (* A flagged [victim]'s removal is committed: retry its cleanup until
     it succeeds or a seek finds another leaf. *)
  let rec excise c key (victim : node R.ptr) =
    let s = seek c key in
    if not (R.Ptr.same_object (R.Snapshot.ptr s.leaf ~tag:0) victim) then begin
      discard c s;
      true
    end
    else begin
      let ok = cleanup c key s in
      discard c s;
      if ok then true else excise c key victim
    end

  (* Flag the leaf's edge, then clean up. *)
  let rec remove_op c key =
    let th = c.th in
    let s = seek c key in
    if (R.Snapshot.get s.leaf).key <> key then begin
      discard c s;
      false
    end
    else begin
      let par = R.Snapshot.get s.par in
      let cell = if key < par.key then par.left else par.right in
      if
        R.Asp.compare_and_swap th cell
          ~expected:(R.Snapshot.ptr s.leaf ~tag:0)
          ~desired:(R.Snapshot.ptr s.leaf ~tag:fl)
      then begin
        let victim = R.Snapshot.ptr s.leaf ~tag:0 in
        let ok = cleanup c key s in
        discard c s;
        if ok then true else excise c key victim
      end
      else begin
        let e = R.Asp.unsafe_ptr cell in
        if R.Ptr.same_object e (R.Snapshot.ptr s.leaf ~tag:0) && R.Ptr.tag e <> 0 then
          ignore (cleanup c key s);
        discard c s;
        remove_op c key
      end
    end

  (* Drop [prev], the snapshot a read walk held above [cur], unless the
     walk's first hop passed [cur] as its own parent: the walk starts
     from one snapshot, not from a null placeholder. *)
  let drop_parent th prev cur = if prev != cur then R.Snapshot.drop th prev

  (* Read-only descent with two rotating snapshots. *)
  let rec contains_from th key prev cur =
    let n = R.Snapshot.get cur in
    if is_leaf n then begin
      let res = n.key = key in
      R.Snapshot.drop th cur;
      drop_parent th prev cur;
      res
    end
    else begin
      let next = R.Asp.get_snapshot th (if key < n.key then n.left else n.right) in
      drop_parent th prev cur;
      contains_from th key cur next
    end

  let contains_op c key =
    let top = R.Asp.get_snapshot c.th (R.Shared.get c.t.root).left in
    contains_from c.th key top top

  (* DFS range count holding one snapshot per path node — the workload
     that exhausts RCHP's announcement slots (Fig 11). [range_in] counts
     the keys in [lo, hi) below [cell]'s target. *)
  let rec range_in th lo hi cell =
    let snap = R.Asp.get_snapshot th cell in
    let k = if R.Snapshot.is_null snap then 0 else range_below th lo hi snap in
    R.Snapshot.drop th snap;
    k

  and range_below th lo hi snap =
    let n = R.Snapshot.get snap in
    if is_leaf n then if n.key >= lo && n.key < hi && n.key < inf1 then 1 else 0
    else begin
      let l = if lo < n.key then range_in th lo hi n.left else 0 in
      if hi > n.key then l + range_in th lo hi n.right else l
    end

  let range_op c (lo, hi) = range_in c.th lo hi (R.Shared.get c.t.root).left

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  (* Each operation is a section body of the context and the input
     [critically] passes it, so that a section allocates nothing of its
     own. *)
  let insert c key = R.critically c.th insert_op c key
  let remove c key = R.critically c.th remove_op c key
  let contains c key = R.critically c.th contains_op c key
  let range_query c lo hi = R.critically c.th range_op c (lo, hi)
  let flush c = R.flush c.th

  (* The keys below [snap]'s node, at quiescence. *)
  let rec size_below th (snap : node R.snapshot) =
    let n = R.Snapshot.get snap in
    if is_leaf n then if n.key < inf1 then 1 else 0
    else begin
      let l = R.Asp.get_snapshot th n.left in
      let r = R.Asp.get_snapshot th n.right in
      let total =
        (if R.Snapshot.is_null l then 0 else size_below th l)
        + if R.Snapshot.is_null r then 0 else size_below th r
      in
      R.Snapshot.drop th l;
      R.Snapshot.drop th r;
      total
    end

  let size_from th (root : node R.shared) =
    let s = R.Asp.get_snapshot th (R.Shared.get root).left in
    let n = if R.Snapshot.is_null s then 0 else size_below th s in
    R.Snapshot.drop th s;
    n

  let size t =
    let th = R.thread t.rt 0 in
    R.critically th size_from th t.root

  let live_objects t = R.live_objects t.rt
  let peak_objects t = R.peak_objects t.rt
  let reset_peak t = Simheap.reset_peak (R.heap t.rt)

  let teardown t =
    let th = R.thread t.rt 0 in
    R.Shared.drop th t.root;
    R.quiesce t.rt
  let snapshot_stats t = Some (R.snapshot_stats t.rt)
  let retired_backlog t = R.retired_backlog t.rt
  let stalled t = R.stalled t.rt
end
