(** Sharded KV store under automatic reference counting — the serving
    workload of DESIGN.md §12. Each bucket is a {!Ds.Hm_list_rc} chain
    whose node carries an atomic value slot, and one RC runtime serves
    every chain. A shard is a placement, not a runtime: shard [s] owns
    the [s]-th block of [buckets] chains in one flat array, and a key
    lands in its shard's block by {!Ds.Hash_table_rc.bucket}.
    This module adds only what a store needs on top of the chain:
    sharding, value boxes, the slot-mark protocol, TTL and counters.

    See {!Kv_intf} for the slot-mark protocol. The invariant that
    makes searches (first node with key ≥ k) sufficient: within a
    bucket chain, a live node for key [k] always precedes any same-key
    tombstones, because inserts go {e before} the first key-≥-k node
    and a node is never resurrected after its slot is marked.

    The protocol steps that decide linearization — chain traversal
    (in the chain's shared search), the slot CAS/mark, and the
    physical unlink — are annotated with {!Sched.yield} scheduling
    points (free outside a controller), so test/test_kv.ml can drive
    the shard core under the DFS explorer and check recorded histories
    for linearizability across bounded preemption interleavings. *)

module Make (R : Cdrc.Intf.S) : Kv_intf.S = struct
  module L = Ds.Hm_list_rc.Make (R)

  let name = R.scheme_name

  (* Immutable value box: the unit of overwrite churn. [bexp] is the
     logical expiry tick; [max_int] = no TTL. *)
  type box = { bv : int; bexp : int }

  (* A chain node whose [value] is the key's atomic value slot. *)
  type node = box R.asp L.node

  type t = {
    rt : R.rt;
    buckets : node R.asp array; (* shard [s]'s block: [s * nbuckets, (s + 1) * nbuckets) *)
    nbuckets : int; (* chains per shard *)
    mask : int;
    clock : int Atomic.t;
    c_puts_new : int Padded.t;
    c_overwrites : int Padded.t;
    c_expired_overwrites : int Padded.t;
    c_removes : int Padded.t;
    c_expiries : int Padded.t;
    c_gets_hit : int Padded.t;
    c_gets_miss : int Padded.t;
  }

  type ctx = { t : t; th : R.thr; pid : int }

  let pow2_ceil n =
    let r = ref 1 in
    while !r < n do
      r := !r lsl 1
    done;
    !r

  let create ?(shards = 4) ?(buckets = 1 lsl 10) ~max_threads () =
    if shards <= 0 then invalid_arg "Kv_service.create: shards must be positive";
    if buckets <= 0 then invalid_arg "Kv_service.create: buckets must be positive";
    let nshards = pow2_ceil shards in
    {
      rt = R.create ~support_weak:false ~max_threads ();
      buckets = Array.init (nshards * buckets) (fun _ -> R.Asp.make_null ());
      nbuckets = buckets;
      mask = nshards - 1;
      clock = Atomic.make 0;
      c_puts_new = Padded.create max_threads 0;
      c_overwrites = Padded.create max_threads 0;
      c_expired_overwrites = Padded.create max_threads 0;
      c_removes = Padded.create max_threads 0;
      c_expiries = Padded.create max_threads 0;
      c_gets_hit = Padded.create max_threads 0;
      c_gets_miss = Padded.create max_threads 0;
    }

  let shard_count t = t.mask + 1

  (* Shard router: a different Fibonacci mix than the bucket hash, so
     bucket collisions and shard placement are uncorrelated. *)
  let shard_of_key t key = (key * 0x2545F4914F6CDD1D land max_int) lsr 17 land t.mask

  (* The chain of [key]: its bucket within its shard's block. *)
  let chain t key =
    t.buckets.((shard_of_key t key * t.nbuckets) + Ds.Hash_table_rc.bucket t.nbuckets key)

  let ctx t pid = { t; th = R.thread t.rt pid; pid }
  let now t = Atomic.get t.clock
  let tick t = 1 + Atomic.fetch_and_add t.clock 1
  let bump arr c = Padded.add arr c.pid 1

  (* Physical deletion of a slot-marked node: mark [next], then unlink
     via the predecessor from the caller's cursor ({!L.unlink}). Loops
     until the next-mark lands — the slot mark already made the node
     unresurrectable, so the only contention is successor churn. *)
  let unlink_node th head cu (node : node) =
    let rec mark_next () =
      Sched.yield ();
      let next = R.Asp.get_snapshot th node.next in
      if R.Snapshot.is_marked next then R.Snapshot.drop th next
      else if R.Asp.try_mark th node.next ~expected:(R.Snapshot.ptr next ~tag:0) then
        L.unlink th head cu node.key next
      else begin
        R.Snapshot.drop th next;
        mark_next ()
      end
    in
    mark_next ()

  let mk_box th v exp = R.Shared.make th { bv = v; bexp = exp }

  let mk_node th key box_sh next_ptr =
    R.Shared.make th
      ~destroy:(fun th (n : node) ->
        R.Asp.clear th n.value;
        R.Asp.clear th n.next)
      { L.key; value = R.Asp.make th (R.Shared.ptr box_sh); next = R.Asp.make th next_ptr }

  (* Drop a slot snapshot, then the cursor it was read under. *)
  let release th bs cu =
    R.Snapshot.drop th bs;
    L.discard th cu

  (* ------------------------------------------------------------------ *)
  (* Core operations. Each runs under [R.critically] on the context's
     one thread handle. *)

  let get c ~now key =
    let th = c.th and head = chain c.t key in
    R.critically th (fun () ->
        let cu = L.search th head key in
        if not cu.found then begin
          L.discard th cu;
          bump c.t.c_gets_miss c;
          None
        end
        else begin
          let node = R.Snapshot.get cu.cur in
          let bs = R.Asp.get_snapshot th node.value in
          if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
            release th bs cu;
            bump c.t.c_gets_miss c;
            None
          end
          else begin
            let box = R.Snapshot.get bs in
            if box.bexp > now then begin
              let v = box.bv in
              release th bs cu;
              bump c.t.c_gets_hit c;
              Some v
            end
            else begin
              (* Expired: never served. Lazily claim the expiry; the
                 winner of the slot mark owns the physical unlink. *)
              Sched.yield ();
              let claimed =
                R.Asp.try_mark th node.value ~expected:(R.Snapshot.ptr bs ~tag:0)
              in
              R.Snapshot.drop th bs;
              if claimed then begin
                bump c.t.c_expiries c;
                unlink_node th head cu node
              end;
              L.discard th cu;
              bump c.t.c_gets_miss c;
              None
            end
          end
        end)

  let put c ~now ?ttl key v =
    let th = c.th and head = chain c.t key in
    let exp = match ttl with None -> max_int | Some d -> now + d in
    R.critically th (fun () ->
        let rec go () =
          let cu = L.search th head key in
          let insert_fresh () =
            (* Fresh node before the first key-≥-k node: covers both
               the absent case and insert-before-tombstone. *)
            let box_sh = mk_box th v exp in
            let fresh = mk_node th key box_sh (R.Snapshot.ptr cu.cur ~tag:0) in
            R.Shared.drop th box_sh;
            Sched.yield ();
            if
              R.Asp.compare_and_swap th cu.prev
                ~expected:(R.Snapshot.ptr cu.cur ~tag:0)
                ~desired:(R.Shared.ptr fresh)
            then begin
              R.Shared.drop th fresh;
              L.discard th cu;
              bump c.t.c_puts_new c;
              false
            end
            else begin
              R.Shared.drop th fresh;
              L.discard th cu;
              go ()
            end
          in
          if not cu.found then insert_fresh ()
          else begin
            let node = R.Snapshot.get cu.cur in
            let bs = R.Asp.get_snapshot th node.value in
            if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
              R.Snapshot.drop th bs;
              insert_fresh ()
            end
            else begin
              let old = R.Snapshot.get bs in
              let box_sh = mk_box th v exp in
              Sched.yield ();
              if
                R.Asp.compare_and_swap th node.value
                  ~expected:(R.Snapshot.ptr bs ~tag:0)
                  ~desired:(R.Shared.ptr box_sh)
              then begin
                (* The old box's decrement is now deferred through the
                   scheme — overwrite churn is retirement traffic. *)
                R.Shared.drop th box_sh;
                release th bs cu;
                if old.bexp > now then begin
                  bump c.t.c_overwrites c;
                  true
                end
                else begin
                  bump c.t.c_expired_overwrites c;
                  false
                end
              end
              else begin
                R.Shared.drop th box_sh;
                release th bs cu;
                go ()
              end
            end
          end
        in
        go ())

  (* Shared kill path: claim the slot mark, count the death as a
     remove (live) or expiry (dead), unlink. [only_expired] is the
     sweep/lazy-expiry mode: live entries survive. Returns
     [(claimed, was_live)]. *)
  let kill c ~now ~only_expired key =
    let th = c.th and head = chain c.t key in
    R.critically th (fun () ->
        let rec go () =
          let cu = L.search th head key in
          if not cu.found then begin
            L.discard th cu;
            (false, false)
          end
          else begin
            let node = R.Snapshot.get cu.cur in
            let bs = R.Asp.get_snapshot th node.value in
            if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
              release th bs cu;
              (false, false)
            end
            else begin
              let live = (R.Snapshot.get bs).bexp > now in
              if only_expired && live then begin
                release th bs cu;
                (false, false)
              end
              else if begin
                Sched.yield ();
                R.Asp.try_mark th node.value ~expected:(R.Snapshot.ptr bs ~tag:0)
              end
              then begin
                R.Snapshot.drop th bs;
                bump (if live then c.t.c_removes else c.t.c_expiries) c;
                unlink_node th head cu node;
                L.discard th cu;
                (true, live)
              end
              else begin
                release th bs cu;
                go ()
              end
            end
          end
        in
        go ())

  let remove c ~now key = snd (kill c ~now ~only_expired:false key)

  (* Read-only chain fold in a section of its own: [f th acc node] over
     every node not physically dying ({!L.fold}). The section is
     [critically]'s two halves around the fold, so a sweep folds its
     buckets without building a section body for each. *)
  let fold_chain th head f acc =
    R.begin_critical_section th;
    match L.fold th head f acc with
    | acc ->
        R.end_critical_section th;
        acc
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        R.end_critical_section th;
        Printexc.raise_with_backtrace e bt

  (* The expiry of [node]'s box, read under a snapshot of its slot;
     [min_int] when the slot holds no live box (empty or marked). *)
  let expiry th (node : node) =
    let bs = R.Asp.get_snapshot th node.value in
    let exp =
      if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then min_int
      else (R.Snapshot.get bs).bexp
    in
    R.Snapshot.drop th bs;
    exp

  (* A sweep builds its callbacks once, not once per bucket. *)
  let scan c ~now lo hi =
    let count th acc node =
      let exp = expiry th node in
      if node.key >= lo && node.key < hi && exp > now then acc + 1 else acc
    in
    Array.fold_left (fun acc head -> fold_chain c.th head count acc) 0 c.t.buckets

  let expire_sweep c ~now =
    let collect th acc node =
      let exp = expiry th node in
      if exp > min_int && exp <= now then node.key :: acc else acc
    in
    let claimed = ref 0 in
    let claim key = if fst (kill c ~now ~only_expired:true key) then incr claimed in
    Array.iter
      (fun head ->
        (* Collect candidates read-only, then claim each through the
           racing-safe kill path. *)
        List.iter claim (fold_chain c.th head collect []))
      c.t.buckets;
    !claimed

  let flush c = R.flush c.th

  (* ------------------------------------------------------------------ *)
  (* Accounting and observability *)

  let size t ~now =
    let count th acc node = if expiry th node > now then acc + 1 else acc in
    let th = R.thread t.rt 0 in
    Array.fold_left (fun acc head -> fold_chain th head count acc) 0 t.buckets

  let live_objects t = R.live_objects t.rt
  let peak_objects t = R.peak_objects t.rt
  let reset_peak t = Simheap.reset_peak (R.heap t.rt)
  let retired_backlog t = R.retired_backlog t.rt

  let counters t =
    let sum arr = Padded.fold ( + ) 0 arr in
    {
      Kv_intf.puts_new = sum t.c_puts_new;
      overwrites = sum t.c_overwrites;
      expired_overwrites = sum t.c_expired_overwrites;
      removes = sum t.c_removes;
      expiries = sum t.c_expiries;
      gets_hit = sum t.c_gets_hit;
      gets_miss = sum t.c_gets_miss;
    }

  let teardown t =
    let th = R.thread t.rt 0 in
    Array.iter (fun head -> R.Asp.clear th head) t.buckets;
    R.quiesce t.rt
end
