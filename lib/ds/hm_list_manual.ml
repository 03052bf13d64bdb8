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

  type node = { key : int; next : link Atomic.t }
  and link = { dest : node Ar.managed option; marked : bool }

  type t = { ar : Ar.t; head : link Atomic.t }
  type ctx = { t : t; pid : int }

  let null_link = { dest = None; marked = false }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    { ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads (); head = Atomic.make null_link }

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

  let rec link_cas cell expected desired =
    let cur = Atomic.get cell in
    if not (link_eq cur expected) then false
    else if Atomic.compare_and_set cell cur desired then true
    else link_cas cell expected desired

  (* [link_cas] for an unlink: the witness that [victim], the node
     [expected] links to, is unlinked. *)
  let rec unlink s cell expected desired victim =
    let cur = Atomic.get cell in
    if not (link_eq cur expected) then None
    else
      match Ar.unlink s cell ~seen:cur ~desired victim with
      | None -> unlink s cell expected desired victim
      | w -> w

  (* Protect the destination of the link currently in [cell]. Guard
     budget per traversal is at most 3, below the default 8 slots of
     HP/HE. *)
  let protect s cell =
    let ((_, g) as p) = Ar.protect s ~ident:ident_of cell in
    if Ar.guarded g then p
    else failwith "hm_list_manual: out of announcement slots (need >= 3)"

  exception Restart

  (* Run [body] in a protection scope, reopening a fresh one on
     [Restart]: the scope releases whatever the abandoned attempt
     held. *)
  let rec scoped c body =
    match Ar.scope c.t.ar ~pid:c.pid body with v -> v | exception Restart -> scoped c body

  (* Typed by its scope: [prev] and [cur] are protected only while the
     scope that found them is open, [cur]'s node by [cg]. *)
  type 's cursor = {
    found : bool;
    prev : link Atomic.t;
    cur : link; (* unmarked view of the successor *)
    cg : 's Ar.guard;
  }

  (* The traversals walk hand over hand: [pg] protects the node holding
     the [prev] cell and [cg] the node [cur] links to. The head cell
     belongs to no node, so [pg] means nothing while [at_head]. [cur] is
     always an unmarked view, so it doubles as the CAS-expected link. *)
  let unlinked prev cur = not (link_eq (Atomic.get prev) cur)

  (* Michael's find: position the cursor at the first node with
     key >= [key], unlinking marked nodes on the way. *)
  let rec find (s : 's Ar.scope) c key prev pg (cur : link) cg at_head : 's cursor =
    match cur.dest with
    | None -> { found = false; prev; cur; cg }
    | Some m ->
        let node = Ar.get s cg m in
        let next, gn = protect s node.next in
        (* Protected-pointer schemes: cur is only trustworthy if prev
           still links to it unmarked (Michael 2002). *)
        if validate && unlinked prev cur then raise Restart
        else if next.marked then begin
          (* cur is logically deleted: unlink and retire it. *)
          let succ = { next with marked = false } in
          Sched.yield ();
          match unlink s prev cur succ m with
          | Some w ->
              Ar.retire_free s w cg;
              Ar.eject c.t.ar ~pid:c.pid;
              find s c key prev pg succ gn at_head
          | None -> raise Restart
        end
        else if node.key >= key then begin
          Ar.release s gn;
          { found = node.key = key; prev; cur; cg }
        end
        else begin
          if not at_head then Ar.release s pg;
          find s c key node.next cg next gn false
        end

  let search s c head key =
    let cur, g = protect s head in
    find s c key head g cur g true

  let insert_at c head key =
    scoped c
      {
        f =
          (fun s ->
            let cu = search s c head key in
            if cu.found then false
            else begin
              let m = Ar.alloc c.t.ar ~pid:c.pid { key; next = Atomic.make cu.cur } in
              if link_cas cu.prev cu.cur (link_to m) then true
              else begin
                Ar.discard m;
                raise Restart
              end
            end);
      }

  (* The body returns once the deletion is owned: [`Marked] when the
     unlink CAS lost, so a helping search in a fresh scope unlinks and
     retires the node. Run inside the body, a [Restart] from that
     search would re-run the whole remove after its mark took effect.
     The {!Sched.yield} points (free outside a controller) let the
     schedule explorer drive that path, as test/test_ds.ml does. *)
  let remove_at c head key =
    match
      scoped c
        {
          f =
            (fun s ->
              let cu = search s c head key in
              if not cu.found then `Absent
              else begin
                let m = Option.get cu.cur.dest in
                let node = Ar.get s cu.cg m in
                let next = Atomic.get node.next in
                (* A marked node is owned by a concurrent remove; retry
                   until the find no longer sees it. *)
                if next.marked then raise Restart
                else if link_cas node.next next { next with marked = true } then begin
                  (* We own the deletion; try to unlink (guards still
                     held, so the prev cell is safe to CAS). *)
                  Sched.yield ();
                  match unlink s cu.prev cu.cur next m with
                  | Some w ->
                      Ar.retire_free s w cu.cg;
                      Ar.eject c.t.ar ~pid:c.pid;
                      `Unlinked
                  | None -> `Marked
                end
                else raise Restart
              end);
        }
    with
    | `Absent -> false
    | `Unlinked -> true
    | `Marked ->
        scoped c { f = (fun s -> ignore (search s c head key)) };
        true

  (* Read-only traversal: no helping, no unlinking; marked nodes are
     passed through (their links are frozen). *)
  let rec contains_in s key prev pg (cur : link) cg at_head =
    match cur.dest with
    | None -> false
    | Some m ->
        let node = Ar.get s cg m in
        if node.key > key then false
        else if node.key = key then
          (* Deletion flag lives on the node's own next link; no
             dereference needed to read it. *)
          not (Atomic.get node.next).marked
        else begin
          let next, gn = protect s node.next in
          if validate && unlinked prev cur then raise Restart;
          if not at_head then Ar.release s pg;
          contains_in s key node.next cg { next with marked = false } gn false
        end

  let contains_at c head key =
    scoped c
      {
        f =
          (fun s ->
            let cur, g = protect s head in
            contains_in s key head g cur g true);
      }

  (* Sequential-traversal range count (non-linearizable, as in the
     paper's range-query workload). *)
  let rec range_in s lo hi n prev pg (cur : link) cg at_head =
    match cur.dest with
    | None -> n
    | Some m ->
        let node = Ar.get s cg m in
        if node.key >= hi then n
        else begin
          let next, gn = protect s node.next in
          if validate && unlinked prev cur then raise Restart;
          let n = if node.key >= lo && not next.marked then n + 1 else n in
          if not at_head then Ar.release s pg;
          range_in s lo hi n node.next cg { next with marked = false } gn false
        end

  let range_at c head lo hi =
    scoped c
      {
        f =
          (fun s ->
            let cur, g = protect s head in
            range_in s lo hi 0 head g cur g true);
      }

  (* Quiescent-only sequential helpers over a head cell. *)
  let size_at head =
    let rec go l n =
      match l.dest with
      | None -> n
      | Some m ->
          let next = Atomic.get (Ar.quiescent m).next in
          go next (if next.marked then n else n + 1)
    in
    go (Atomic.get head) 0

  let teardown_at head =
    let rec go l =
      match l.dest with
      | None -> ()
      | Some m ->
          let next = Atomic.get (Ar.quiescent m).next in
          if Ar.is_live m then Ar.discard m;
          go next
    in
    go (Atomic.get head);
    Atomic.set head null_link

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  let insert c key = insert_at c c.t.head key
  let remove c key = remove_at c c.t.head key
  let contains c key = contains_at c c.t.head key
  let range_query c lo hi = range_at c c.t.head lo hi
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
