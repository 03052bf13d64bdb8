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
  let rec unlink_node th head cu (node : node) =
    Sched.yield ();
    let next = R.Asp.get_snapshot th node.next in
    if R.Snapshot.is_marked next then R.Snapshot.drop th next
    else if R.Asp.try_mark th node.next ~expected:(R.Snapshot.ptr next ~tag:0) then
      L.unlink th head cu node.key next
    else begin
      R.Snapshot.drop th next;
      unlink_node th head cu node
    end

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
  (* Core operations. Each is a section body of the context and its
     input, run under [R.critically] on the context's one thread handle;
     a body retries by tail call from a fresh search. *)

  let get_in c (now, key) =
    let th = c.th and head = chain c.t key in
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
          (* Expired: never served. Lazily claim the expiry; the winner
             of the slot mark owns the physical unlink. *)
          Sched.yield ();
          let claimed = R.Asp.try_mark th node.value ~expected:(R.Snapshot.ptr bs ~tag:0) in
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
    end

  let get c ~now key = R.critically c.th get_in c (now, key)

  let rec put_in c ((now, exp, key, v) as input) =
    let th = c.th and head = chain c.t key in
    let cu = L.search th head key in
    if not cu.found then insert_fresh c input cu
    else begin
      let node = R.Snapshot.get cu.cur in
      let bs = R.Asp.get_snapshot th node.value in
      if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
        R.Snapshot.drop th bs;
        insert_fresh c input cu
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
          (* The old box's decrement is now deferred through the scheme
             — overwrite churn is retirement traffic. *)
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
          put_in c input
        end
      end
    end

  (* A fresh node before the cursor's first key-≥-k node: covers both
     the absent case and insert-before-tombstone. *)
  and insert_fresh c ((_, exp, key, v) as input) cu =
    let th = c.th in
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
      put_in c input
    end

  let put c ~now ?ttl key v =
    let exp = match ttl with None -> max_int | Some d -> now + d in
    R.critically c.th put_in c (now, exp, key, v)

  (* Shared kill path: claim the slot mark, count the death as a
     remove (live) or expiry (dead), unlink. [only_expired] is the
     sweep/lazy-expiry mode: live entries survive. Returns
     [(claimed, was_live)]. *)
  let rec kill c ~only_expired ~now key =
    let th = c.th and head = chain c.t key in
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
          kill c ~only_expired ~now key
        end
      end
    end

  let remove_in c (now, key) = snd (kill c ~only_expired:false ~now key)
  let expire_in c (now, key) = fst (kill c ~only_expired:true ~now key)
  let remove c ~now key = R.critically c.th remove_in c (now, key)

  (* A sweep's section body over one chain: [f th acc node] folded from
     [init] over every node not physically dying ({!L.fold}). A sweep
     builds it once, not once per bucket. *)
  let chain_fold f init th head = L.fold th head f init

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

  (* The nodes of every chain in [buckets] that [keep node exp]
     accepts, [exp] being the expiry of the node's box: one section per
     chain. *)
  let count_chains th buckets keep =
    let count th acc node = if keep node (expiry th node) then acc + 1 else acc in
    let count_chain = chain_fold count 0 in
    Array.fold_left (fun acc head -> acc + R.critically th count_chain th head) 0 buckets

  let scan c ~now lo hi =
    count_chains c.th c.t.buckets (fun node exp -> node.key >= lo && node.key < hi && exp > now)

  let expire_sweep c ~now =
    let collect th acc node =
      let exp = expiry th node in
      if exp > min_int && exp <= now then node.key :: acc else acc
    in
    let collect_chain = chain_fold collect [] in
    let claimed = ref 0 in
    let claim key = if R.critically c.th expire_in c (now, key) then incr claimed in
    Array.iter
      (fun head ->
        (* Collect candidates read-only, then claim each through the
           racing-safe kill path. *)
        List.iter claim (R.critically c.th collect_chain c.th head))
      c.t.buckets;
    !claimed

  let flush c = R.flush c.th

  (* ------------------------------------------------------------------ *)
  (* Accounting and observability *)

  let size t ~now = count_chains (R.thread t.rt 0) t.buckets (fun _ exp -> exp > now)

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
