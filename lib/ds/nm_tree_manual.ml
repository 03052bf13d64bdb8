(** Natarajan–Mittal lock-free external binary search tree (PPoPP
    2014) under manual SMR — the paper's main benchmark structure
    (Figs 11, 13c–f) and its Fig 1a example of how error-prone manual
    retirement is: the cleanup path must retire an entire chain of
    nodes by hand, a loop several published artifacts got wrong.

    Edges carry a {e flag} bit (a leaf removal is in progress through
    this edge) and a {e tag} bit (the edge is frozen and will be
    excised together with its parent). Seek tracks the last untagged
    edge (ancestor → successor); cleanup tags the sibling edge and
    swings the ancestor edge past the whole flagged chain, then retires
    every excised node (the Fig 1a loop).

    Safety caveat, reproduced deliberately: the paper notes (§5.1) that
    HP and IBR are {e not} safe for this tree — seeks can traverse
    frozen edges of logically removed nodes whose targets were already
    reclaimed; "we still include these numbers … even though these
    experiments occasionally crash". Under our simulated heap such an
    access raises [Simheap.Use_after_free] instead of corrupting
    memory; the operation wrapper counts the event and restarts in a
    fresh protection scope (the old one released every guard on the
    unwind) — so the benchmark keeps running and reports the violation
    count. EBR and Hyaline are fully safe here.

    Guard discipline: only the ancestor, parent, and current nodes are
    ever dereferenced, so at most four announcement slots are live at a
    time during seeks; the successor is tracked without protection
    because it is only compared and CAS-expected, never read. Range
    queries hold a guard per path node and fall back to unprotected
    reads when slots run out (HP/HE), matching the paper's over-budget
    behaviour. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { key : int; left : edge Sched.Atomic.t; right : edge Sched.Atomic.t }
  and edge = { dest : node Ar.managed option; flag : bool; tag : bool }

  let inf2 = max_int
  let inf1 = max_int - 1
  let clean m = { dest = Some m; flag = false; tag = false }
  let null_edge = { dest = None; flag = false; tag = false }

  type t = {
    ar : Ar.t;
    root : node Ar.managed; (* the R sentinel; never retired *)
    uaf : int Sched.Atomic.t; (* unsafe-scheme violations caught and retried *)
  }

  type ctx = { t : t; pid : int }

  let mk_leaf ar ~pid key =
    Ar.alloc ar ~pid
      { key; left = Sched.Atomic.make null_edge; right = Sched.Atomic.make null_edge }

  let mk_internal ar ~pid key l r =
    Ar.alloc ar ~pid
      { key; left = Sched.Atomic.make (clean l); right = Sched.Atomic.make (clean r) }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    let ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads () in
    (* Sentinels: R(inf2) -> [ S(inf1), leaf(inf2) ];
                  S(inf1) -> [ leaf(inf1), leaf(inf2) ]. *)
    let l_inf1 = mk_leaf ar ~pid:0 inf1 in
    let l_inf2a = mk_leaf ar ~pid:0 inf2 in
    let l_inf2b = mk_leaf ar ~pid:0 inf2 in
    let s = mk_internal ar ~pid:0 inf1 l_inf1 l_inf2a in
    let r = mk_internal ar ~pid:0 inf2 s l_inf2b in
    { ar; root = r; uaf = Sched.Atomic.make 0 }

  let ctx t pid = { t; pid }
  let uaf_events t = Sched.Atomic.get t.uaf
  let is_leaf node = match (Sched.Atomic.get node.left).dest with None -> true | Some _ -> false
  let ident_of e = match e.dest with None -> Ident.null | Some m -> Ident.of_val m

  let edge_eq a b =
    a.flag = b.flag && a.tag = b.tag
    &&
    match (a.dest, b.dest) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false

  (* Protect the destination of the edge in [cell]. Its guard,
     [Ar.guard s], is [Ar.unguarded] when the announcement slots ran
     out: proceed unprotected (the paper's over-budget HP behaviour). *)
  let protect s cell = Ar.protect s ~ident:ident_of cell

  (* Read [m] through its guard, or, with none — the over-budget
     fallback, and the root sentinel, which is never retired — through
     the tree's one unguarded read. *)
  let deref s g m = if Ar.guarded g then Ar.get s g m else Ar.get_unguarded m

  (* Seek record (paper Fig 1a), typed by the scope whose guards
     protect its ancestor, parent and leaf; the successor is never
     dereferenced so it carries no guard. *)
  type 's seek_record = {
    anc : node Ar.managed;
    g_anc : 's Ar.guard;
    suc : node Ar.managed;
    par : node Ar.managed;
    g_par : 's Ar.guard;
    leaf : node Ar.managed;
    g_leaf : 's Ar.guard;
  }

  (* A retry releases the record's guards before it seeks again. *)
  let release_seek s sr =
    Ar.release s sr.g_leaf;
    Ar.release s sr.g_par;
    Ar.release s sr.g_anc

  (* One step down from internal node [n] (= [par]), toward [key]. *)
  let rec descend (s : 's Ar.scope) key anc g_anc suc n par g_par : 's seek_record =
    let e = protect s (if key < n.key then n.left else n.right) in
    match e.dest with
    | None ->
        (* Internal nodes always have two children; a null edge
           means we read a reclaimed node on an unsafe scheme. *)
        raise (Simheap.Use_after_free "nm_tree: null child of internal node")
    | Some m -> walk s key anc g_anc suc par g_par m (Ar.guard s) e.tag

  and walk s key anc g_anc suc par g_par cur g_cur cur_tag =
    let n = deref s g_cur cur in
    if is_leaf n then { anc; g_anc; suc; par; g_par; leaf = cur; g_leaf = g_cur }
    else if not cur_tag then begin
      (* The edge par->cur is untagged: par/cur become the new
         ancestor/successor. *)
      Ar.release s g_anc;
      descend s key par g_par cur n cur g_cur
    end
    else begin
      Ar.release s g_par;
      descend s key anc g_anc suc n cur g_cur
    end

  (* From the root sentinel, whose first step always lands on S. *)
  let seek s c key =
    let r = c.t.root in
    descend s key r Ar.unguarded r (deref s Ar.unguarded r) r Ar.unguarded

  (* Set the tag bit of the edge in [cell]. *)
  let rec tag cell =
    let e = Sched.Atomic.get cell in
    if not (e.tag || Sched.Atomic.compare_and_set cell e { e with tag = true }) then tag cell

  (* Retire the excised chain from [n] down to the kept sibling [stop]:
     each chain node and the flagged leaf hanging off it, all under the
     one witness. Exactly the loop the paper shows is easy to get wrong
     (Fig 1a); reference counting makes it disappear (see Nm_tree_rc). *)
  let is_stop stop d = match (d, stop) with Some a, Some b -> a == b | _ -> false

  let rec retire_chain s w stop (n : node Ar.managed) =
    if not (is_stop stop (Some n)) then begin
      Sched.yield ();
      let node = Ar.excised w n in
      let el = Sched.Atomic.get node.left in
      let er = Sched.Atomic.get node.right in
      (* At the parent, the excised child is whichever one is not the
         kept sibling: both may be flagged when two removals race on one
         parent, and retiring the sibling here would free it twice once
         its own removal completes. *)
      let excised, next =
        if is_stop stop er.dest then (el.dest, er.dest)
        else if is_stop stop el.dest then (er.dest, el.dest)
        else if el.flag then (el.dest, er.dest)
        else (er.dest, el.dest)
      in
      (match excised with Some fm -> Ar.retire_excised s w fm | None -> ());
      Ar.retire_excised s w n;
      match next with Some m -> retire_chain s w stop m | None -> ()
    end

  (* Excise the flagged chain hanging between ancestor and sibling:
     tag the sibling edge, swing the ancestor edge, and — this being
     the manual version — retire the whole chain by hand (Fig 1a).
     The {!Sched.yield} points (free outside a controller) let the
     schedule explorer interleave two removals mid-cleanup, as
     test/test_ds.ml does for sibling leaves of one parent. *)
  let cleanup s c key (sr : _ seek_record) =
    Sched.yield ();
    let par = deref s sr.g_par sr.par in
    let child_cell, sibling_cell =
      if key < par.key then (par.left, par.right) else (par.right, par.left)
    in
    let sibling_cell = if (Sched.Atomic.get child_cell).flag then sibling_cell else child_cell in
    tag sibling_cell;
    let es = Sched.Atomic.get sibling_cell in
    let anc = deref s sr.g_anc sr.anc in
    let acell = if key < anc.key then anc.left else anc.right in
    Sched.yield ();
    match
      Ar.unlink s ~eq:edge_eq acell ~expected:(clean sr.suc) ~desired:{ es with tag = false }
        sr.suc
    with
    | None -> false
    | Some w ->
        retire_chain s w es.dest sr.suc;
        Ar.eject c.t.ar ~pid:c.pid;
        true

  (* Operations run in a protection scope. A Use_after_free (possible
     under the unsafe schemes, see header) is counted, and the operation
     reruns in a fresh scope: the old one released every guard. *)
  let rec rerun_on_uaf c body x =
    match Ar.scope c.t.ar ~pid:c.pid body c x with
    | v -> v
    | exception Simheap.Use_after_free _ ->
        ignore (Sched.Atomic.fetch_and_add c.t.uaf 1);
        rerun_on_uaf c body x

  (* After losing a CAS on [cell], help the delete that beat us, if
     any, then release the record for the caller's retry. *)
  let help s c key (sr : _ seek_record) cell =
    let e = Sched.Atomic.get cell in
    (match e.dest with
    | Some m when m == sr.leaf && (e.flag || e.tag) -> ignore (cleanup s c key sr)
    | _ -> ());
    release_seek s sr

  let rec insert_op s c key =
    let sr = seek s c key in
    let leaf = deref s sr.g_leaf sr.leaf in
    if leaf.key = key then false
    else begin
      let par = deref s sr.g_par sr.par in
      let cell = if key < par.key then par.left else par.right in
      let new_leaf = mk_leaf c.t.ar ~pid:c.pid key in
      let ikey = max key leaf.key in
      let l, r = if key < leaf.key then (new_leaf, sr.leaf) else (sr.leaf, new_leaf) in
      let new_internal = mk_internal c.t.ar ~pid:c.pid ikey l r in
      Ar.cas ~eq:edge_eq cell ~expected:(clean sr.leaf) ~desired:(clean new_internal)
      || begin
           Ar.discard new_leaf;
           Ar.discard new_internal;
           help s c key sr cell;
           insert_op s c key
         end
    end

  (* Flag the leaf's edge, then try one cleanup. The flag commits the
     removal: if that cleanup fails, the caller retries the cleanup (in
     a fresh scope, so that a Use_after_free rerun cannot repeat the
     injection), never the injection. *)
  let rec inject s c key =
    let sr = seek s c key in
    if (deref s sr.g_leaf sr.leaf).key <> key then `Done false
    else begin
      let par = deref s sr.g_par sr.par in
      let cell = if key < par.key then par.left else par.right in
      let flagged = { dest = Some sr.leaf; flag = true; tag = false } in
      if Ar.cas ~eq:edge_eq cell ~expected:(clean sr.leaf) ~desired:flagged then
        if cleanup s c key sr then `Done true else `Flagged sr.leaf
      else begin
        help s c key sr cell;
        inject s c key
      end
    end

  (* A different leaf means someone else finished removing ours. *)
  let rec excise s c key victim =
    let sr = seek s c key in
    sr.leaf != victim || cleanup s c key sr
    || begin
         release_seek s sr;
         excise s c key victim
       end

  (* Read-only descent: protects parent and current only. *)
  let rec contains_in s key g_par cur g_cur =
    let n = deref s g_cur cur in
    if is_leaf n then n.key = key
    else begin
      let e = protect s (if key < n.key then n.left else n.right) in
      match e.dest with
      | None -> raise (Simheap.Use_after_free "nm_tree: null child of internal node")
      | Some m ->
          let g = Ar.guard s in
          Ar.release s g_par;
          contains_in s key g_cur m g
    end

  (* Sequential range count over [lo, hi): DFS holding one guard per
     path node (paper Fig 11's workload). *)
  let rec range_in s lo hi m g n =
    let node = deref s g m in
    if is_leaf node then if node.key >= lo && node.key < hi && node.key < inf1 then n + 1 else n
    else
      let n = if lo < node.key then range_child s lo hi node.left n else n in
      if hi > node.key then range_child s lo hi node.right n else n

  and range_child s lo hi cell n =
    let e = protect s cell in
    let g = Ar.guard s in
    let n = match e.dest with Some m -> range_in s lo hi m g n | None -> n in
    Ar.release s g;
    n

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  (* The scope bodies that start from the root sentinel, or take two
     inputs as one pair. *)
  let excise_victim s c (key, victim) = excise s c key victim
  let contains_root s c key = contains_in s key Ar.unguarded c.t.root Ar.unguarded
  let range_root s c (lo, hi) = range_in s lo hi c.t.root Ar.unguarded 0

  let insert c key = rerun_on_uaf c { f = insert_op } key

  let remove c key =
    match rerun_on_uaf c { f = inject } key with
    | `Done removed -> removed
    | `Flagged victim -> rerun_on_uaf c { f = excise_victim } (key, victim)

  let contains c key = rerun_on_uaf c { f = contains_root } key
  let range_query c lo hi = rerun_on_uaf c { f = range_root } (lo, hi)
  let flush c = Ar.flush c.t.ar ~pid:c.pid

  let size t =
    let rec go m =
      let n = Ar.quiescent m in
      if is_leaf n then if n.key < inf1 then 1 else 0
      else
        let l = (Sched.Atomic.get n.left).dest and r = (Sched.Atomic.get n.right).dest in
        (match l with Some x -> go x | None -> 0)
        + (match r with Some x -> go x | None -> 0)
    in
    go t.root

  let live_objects t = Simheap.live (Ar.heap t.ar)
  let peak_objects t = Simheap.peak (Ar.heap t.ar)
  let reset_peak t = Simheap.reset_peak (Ar.heap t.ar)

  let teardown t =
    let rec free_rec m =
      let n = Ar.quiescent m in
      (match (Sched.Atomic.get n.left).dest with Some x -> free_rec x | None -> ());
      (match (Sched.Atomic.get n.right).dest with Some x -> free_rec x | None -> ());
      if Ar.is_live m then Ar.discard m
    in
    free_rec t.root;
    Ar.quiesce t.ar
  let snapshot_stats _ = None
  let retired_backlog t = Ar.total_pending t.ar
  let stalled t = Ar.stalled t.ar
end
