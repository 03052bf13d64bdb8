(** Harris–Michael lock-free linked-list set (Harris 2001, Michael
    2002) under {e manual} safe memory reclamation — the baseline side
    of the paper's list benchmark (Fig 13a).

    Nodes are unlinked with a logically-deleting mark on their [next]
    link, then retired; removed memory is reclaimed by whichever SMR
    scheme the functor is instantiated with. Schemes whose protection
    is interval- or pointer-precise (HP, HE, IBR) additionally require
    Michael's [*prev == cur] revalidation before trusting a protected
    node; EBR and Hyaline skip it (see [Smr_intf.requires_validation])
    exactly as their native implementations do — this asymmetry is part
    of why region schemes are faster and is preserved deliberately.

    The core operates on an explicit head cell so that the Michael
    hash table can reuse it bucket-by-bucket. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { key : int; next : link Sched.Atomic.t }
  and link = { dest : node Ar.managed option; marked : bool }

  type t = { ar : Ar.t; head : link Sched.Atomic.t }
  type ctx = { t : t; pid : int }

  let null_link = { dest = None; marked = false }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    {
      ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads ();
      head = Sched.Atomic.make null_link;
    }

  let ctx t pid = { t; pid }
  let validate = S.requires_validation
  let ident_of l = match l.dest with None -> Ident.null | Some m -> Ident.of_val m
  let link_to m = { dest = Some m; marked = false }

  let link_eq a b =
    a.marked = b.marked
    &&
    match (a.dest, b.dest) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false

  (* Protect the destination of the link currently in [cell]; the guard
     is [Ar.guard s]. Guard budget per traversal is at most 3, below the
     default 8 slots of HP/HE. *)
  let protect s cell =
    let l = Ar.protect s ~ident:ident_of cell in
    if Ar.guarded (Ar.guard s) then l
    else failwith "hm_list_manual: out of announcement slots (need >= 3)"

  (* Michael's [*prev == cur] revalidation, for the protected-pointer
     schemes: [prev] no longer links to [m] unmarked, so [m] may have
     been retired before its guard was announced. *)
  let moved prev m =
    let l = Sched.Atomic.get prev in
    l.marked || match l.dest with Some x -> x != m | None -> true

  (* The walks go hand over hand: [pg] protects the node holding the
     [prev] cell ({!Ar.unguarded} at the head, which belongs to no node)
     and [cg] the node [prev] links to; a retry releases the guards it
     holds and starts again from the head. *)
  let release3 s pg cg gn =
    Ar.release s gn;
    Ar.release s cg;
    Ar.release s pg

  (* Typed by its scope: [prev] and [cur] are protected only while the
     scope that found them is open, [prev]'s node by [pg] and [cur]'s by
     [cg]. *)
  type 's cursor = {
    found : bool;
    prev : link Sched.Atomic.t;
    pg : 's Ar.guard;
    cur : link; (* unmarked view of [prev]'s link: the CAS-expected value *)
    cg : 's Ar.guard;
  }

  let release_cursor s cu =
    Ar.release s cu.cg;
    Ar.release s cu.pg

  (* Michael's find: position the cursor at the first node with
     key >= [key], unlinking marked nodes on the way. *)
  let rec search s c head key =
    let cur = protect s head in
    find s c head key head Ar.unguarded cur (Ar.guard s)

  and find (s : 's Ar.scope) c head key prev pg (cur : link) cg : 's cursor =
    match cur.dest with
    | None -> { found = false; prev; pg; cur; cg }
    | Some m ->
        let node = Ar.get s cg m in
        let next = protect s node.next in
        let gn = Ar.guard s in
        if validate && moved prev m then begin
          release3 s pg cg gn;
          search s c head key
        end
        else if next.marked then begin
          (* cur is logically deleted: unlink and retire it. *)
          let succ = { next with marked = false } in
          Sched.yield ();
          match Ar.unlink s ~eq:link_eq prev ~expected:cur ~desired:succ m with
          | Some w ->
              Ar.retire_free s w cg;
              Ar.eject c.t.ar ~pid:c.pid;
              find s c head key prev pg succ gn
          | None ->
              release3 s pg cg gn;
              search s c head key
        end
        else if node.key >= key then begin
          Ar.release s gn;
          { found = node.key = key; prev; pg; cur; cg }
        end
        else begin
          Ar.release s pg;
          find s c head key node.next cg next gn
        end

  let rec insert_in s c head key =
    let cu = search s c head key in
    if cu.found then false
    else begin
      let m = Ar.alloc c.t.ar ~pid:c.pid { key; next = Sched.Atomic.make cu.cur } in
      Ar.cas ~eq:link_eq cu.prev ~expected:cu.cur ~desired:(link_to m)
      || begin
           Ar.discard m;
           release_cursor s cu;
           insert_in s c head key
         end
    end

  (* A remove whose mark took effect owns the deletion and reports it
     even when its unlink CAS loses: a helping search then unlinks and
     retires the node. A marked node is owned by a concurrent remove, so
     the remove retries until the search no longer sees it. The
     {!Sched.yield} points (free outside a controller) let the schedule
     explorer drive that path, as test/test_ds.ml does. *)
  let rec remove_in s c head key =
    let cu = search s c head key in
    if not cu.found then false
    else begin
      let m = Option.get cu.cur.dest in
      let node = Ar.get s cu.cg m in
      let next = Sched.Atomic.get node.next in
      if
        (not next.marked)
        && Ar.cas ~eq:link_eq node.next ~expected:next ~desired:{ next with marked = true }
      then begin
        (* We own the deletion; try to unlink (guards still held, so the
           prev cell is safe to CAS). *)
        Sched.yield ();
        (match Ar.unlink s ~eq:link_eq cu.prev ~expected:cu.cur ~desired:next m with
        | Some w ->
            Ar.retire_free s w cu.cg;
            Ar.eject c.t.ar ~pid:c.pid
        | None ->
            release_cursor s cu;
            ignore (search s c head key));
        true
      end
      else begin
        release_cursor s cu;
        remove_in s c head key
      end
    end

  (* Read-only traversal: no helping, no unlinking; marked nodes are
     passed through (their links are frozen). [cur] is the node [prev]
     links to, so a hop allocates nothing. *)
  let rec contains_in s head key prev pg cur cg =
    match cur with
    | None -> false
    | Some m ->
        let node = Ar.get s cg m in
        if node.key > key then false
        else if node.key = key then
          (* Deletion flag lives on the node's own next link; no
             dereference needed to read it. *)
          not (Sched.Atomic.get node.next).marked
        else begin
          let next = protect s node.next in
          let gn = Ar.guard s in
          if validate && moved prev m then begin
            release3 s pg cg gn;
            contains_from s head key
          end
          else begin
            Ar.release s pg;
            contains_in s head key node.next cg next.dest gn
          end
        end

  and contains_from s head key =
    let first = protect s head in
    contains_in s head key head Ar.unguarded first.dest (Ar.guard s)

  (* Sequential-traversal range count (non-linearizable, as in the
     paper's range-query workload). *)
  let rec range_in s head lo hi n prev pg cur cg =
    match cur with
    | None -> n
    | Some m ->
        let node = Ar.get s cg m in
        if node.key >= hi then n
        else begin
          let next = protect s node.next in
          let gn = Ar.guard s in
          if validate && moved prev m then begin
            release3 s pg cg gn;
            range_from s head lo hi
          end
          else begin
            let n = if node.key >= lo && not next.marked then n + 1 else n in
            Ar.release s pg;
            range_in s head lo hi n node.next cg next.dest gn
          end
        end

  and range_from s head lo hi =
    let first = protect s head in
    range_in s head lo hi 0 head Ar.unguarded first.dest (Ar.guard s)

  (* A scope body over [head], counting the keys in [lo, hi). *)
  let range_cell s head (lo, hi) = range_from s head lo hi

  (* Quiescent-only sequential helpers over a head cell. *)
  let size_at head =
    let rec go l n =
      match l.dest with
      | None -> n
      | Some m ->
          let next = Sched.Atomic.get (Ar.quiescent m).next in
          go next (if next.marked then n else n + 1)
    in
    go (Sched.Atomic.get head) 0

  let teardown_at head =
    let rec go l =
      match l.dest with
      | None -> ()
      | Some m ->
          let next = Sched.Atomic.get (Ar.quiescent m).next in
          if Ar.is_live m then Ar.discard m;
          go next
    in
    go (Sched.Atomic.get head);
    Sched.Atomic.set head null_link

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  (* The scope bodies on the set's one head cell, of the context and
     the input [Ar.scope] passes them. *)
  let insert_head s c key = insert_in s c c.t.head key
  let remove_head s c key = remove_in s c c.t.head key

  let insert c key = Ar.scope c.t.ar ~pid:c.pid { f = insert_head } c key
  let remove c key = Ar.scope c.t.ar ~pid:c.pid { f = remove_head } c key
  let contains c key = Ar.scope c.t.ar ~pid:c.pid { f = contains_from } c.t.head key
  let range_query c lo hi = Ar.scope c.t.ar ~pid:c.pid { f = range_cell } c.t.head (lo, hi)
  let flush c = Ar.flush c.t.ar ~pid:c.pid
  let size t = size_at t.head
  let live_objects t = Simheap.live (Ar.heap t.ar)
  let peak_objects t = Simheap.peak (Ar.heap t.ar)
  let reset_peak t = Simheap.reset_peak (Ar.heap t.ar)
  let teardown t =
    teardown_at t.head;
    Ar.quiesce t.ar
  let uaf_events _ = 0

  let snapshot_stats _ = None
  let retired_backlog t = Ar.total_pending t.ar
  let stalled t = Ar.stalled t.ar
end
