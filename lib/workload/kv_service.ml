(** Sharded KV store under automatic reference counting — the serving
    workload of DESIGN.md §12, layered over {!Ds.Hash_table_rc}'s
    design (bucket arrays of Harris–Michael chains) with one RC
    runtime {e per shard} and an atomic value slot per node.

    See {!Kv_intf} for the slot-mark protocol. The invariant that
    makes searches (first node with key ≥ k) sufficient: within a
    bucket chain, a live node for key [k] always precedes any same-key
    tombstones, because inserts go {e before} the first key-≥-k node
    and a node is never resurrected after its slot is marked.

    The protocol steps that decide linearization — chain traversal,
    the slot CAS/mark, and the physical unlink — are annotated with
    {!Sched.yield} scheduling points (free outside a controller), so
    test/test_kv.ml can drive the shard core under the DFS explorer
    and check recorded histories for linearizability across bounded
    preemption interleavings. *)

module Make (R : Cdrc.Intf.S) : Kv_intf.S = struct
  let name = R.scheme_name

  (* Immutable value box: the unit of overwrite churn. [bexp] is the
     logical expiry tick; [max_int] = no TTL. *)
  type box = { bv : int; bexp : int }
  type node = { key : int; slot : box R.asp; next : node R.asp }
  type shard = { rt : R.rt; buckets : node R.asp array; nbuckets : int }

  type t = {
    shards : shard array;
    mask : int;
    heap : Simheap.t;
    clock : int Atomic.t;
    c_puts_new : int Padded.t;
    c_overwrites : int Padded.t;
    c_expired_overwrites : int Padded.t;
    c_removes : int Padded.t;
    c_expiries : int Padded.t;
    c_gets_hit : int Padded.t;
    c_gets_miss : int Padded.t;
  }

  type ctx = { t : t; ths : R.thr array; pid : int }

  let pow2_ceil n =
    let r = ref 1 in
    while !r < n do
      r := !r lsl 1
    done;
    !r

  let create ?(shards = 4) ?(buckets = 1 lsl 10) ?slots_per_thread ?epoch_freq
      ~max_threads () =
    if shards <= 0 then invalid_arg "Kv_service.create: shards must be positive";
    if buckets <= 0 then invalid_arg "Kv_service.create: buckets must be positive";
    let nshards = pow2_ceil shards in
    (* One heap across shards: leak accounting is service-global. *)
    let heap = Simheap.create ~name:("kv-" ^ R.scheme_name) () in
    let mk_shard _ =
      {
        rt =
          R.create ~support_weak:false ?slots_per_thread ?epoch_freq ~heap
            ~max_threads ();
        buckets = Array.init buckets (fun _ -> R.Asp.make_null ());
        nbuckets = buckets;
      }
    in
    {
      shards = Array.init nshards mk_shard;
      mask = nshards - 1;
      heap;
      clock = Atomic.make 0;
      c_puts_new = Padded.create max_threads 0;
      c_overwrites = Padded.create max_threads 0;
      c_expired_overwrites = Padded.create max_threads 0;
      c_removes = Padded.create max_threads 0;
      c_expiries = Padded.create max_threads 0;
      c_gets_hit = Padded.create max_threads 0;
      c_gets_miss = Padded.create max_threads 0;
    }

  let shard_count t = Array.length t.shards

  (* Shard router: a different Fibonacci mix than the bucket hash, so
     bucket collisions and shard placement are uncorrelated. *)
  let shard_of_key t key = (key * 0x2545F4914F6CDD1D land max_int) lsr 17 land t.mask
  let bucket sh key = key * 2654435761 land max_int mod sh.nbuckets
  let ctx t pid = { t; ths = Array.map (fun sh -> R.thread sh.rt pid) t.shards; pid }
  let now t = Atomic.get t.clock
  let tick t = 1 + Atomic.fetch_and_add t.clock 1
  let bump arr c = Padded.add arr c.pid 1

  (* ------------------------------------------------------------------ *)
  (* Chain search — hm_list_rc's cursor, verbatim protocol: position at
     the first node with key ≥ k, helping unlink next-marked nodes.
     Slot (liveness) inspection is the caller's job. *)

  type cursor = {
    found : bool;
    prev : node R.asp;
    prev_s : node R.snapshot; (* keeps prev's node alive; null for head *)
    cur : node R.snapshot;
  }

  let discard th cu =
    R.Snapshot.drop th cu.prev_s;
    R.Snapshot.drop th cu.cur

  exception Restart

  let rec search th head key =
    match search_once th head key with cu -> cu | exception Restart -> search th head key

  and search_once th head key =
    let prev = ref head in
    let prev_s = ref (R.Snapshot.null ()) in
    let cur = ref (R.Asp.get_snapshot th head) in
    let abort () =
      R.Snapshot.drop th !cur;
      R.Snapshot.drop th !prev_s;
      raise Restart
    in
    let rec loop () =
      Sched.yield ();
      if R.Snapshot.is_null !cur then
        { found = false; prev = !prev; prev_s = !prev_s; cur = !cur }
      else begin
        let node = R.Snapshot.get !cur in
        let next = R.Asp.get_snapshot th node.next in
        if R.Snapshot.is_marked next then begin
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

  (* Physical deletion of a slot-marked node: mark [next], then unlink
     via the predecessor from the caller's cursor; a failed unlink is
     finished by a helping re-search. Loops until the next-mark lands —
     the slot mark already made the node unresurrectable, so the only
     contention is successor churn. *)
  let unlink_node th head cu node =
    let rec mark_next () =
      Sched.yield ();
      let next = R.Asp.get_snapshot th node.next in
      if R.Snapshot.is_marked next then R.Snapshot.drop th next
      else if R.Asp.try_mark th node.next ~expected:(R.Snapshot.ptr next ~tag:0) then begin
        if
          not
            (R.Asp.compare_and_swap th cu.prev
               ~expected:(R.Snapshot.ptr cu.cur ~tag:0)
               ~desired:(R.Snapshot.ptr next ~tag:0))
        then begin
          let cu2 = search th head node.key in
          discard th cu2
        end;
        R.Snapshot.drop th next
      end
      else begin
        R.Snapshot.drop th next;
        mark_next ()
      end
    in
    mark_next ()

  let mk_box th v exp = R.Shared.make th { bv = v; bexp = exp }

  let mk_node th key box_sh next_ptr =
    R.Shared.make th
      ~destroy:(fun th n ->
        R.Asp.clear th n.slot;
        R.Asp.clear th n.next)
      { key; slot = R.Asp.make th (R.Shared.ptr box_sh); next = R.Asp.make th next_ptr }

  (* ------------------------------------------------------------------ *)
  (* Core operations. Each runs under [R.critically] on the target
     shard's thread handle only, so a thread stalled in one shard pins
     only that shard's runtime. *)

  let locate c key =
    let s = shard_of_key c.t key in
    (c.t.shards.(s), c.ths.(s))

  let get c ~now key =
    let sh, th = locate c key in
    let head = sh.buckets.(bucket sh key) in
    R.critically th (fun () ->
        let cu = search th head key in
        if not cu.found then begin
          discard th cu;
          bump c.t.c_gets_miss c;
          None
        end
        else begin
          let node = R.Snapshot.get cu.cur in
          let bs = R.Asp.get_snapshot th node.slot in
          if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
            R.Snapshot.drop th bs;
            discard th cu;
            bump c.t.c_gets_miss c;
            None
          end
          else begin
            let box = R.Snapshot.get bs in
            if box.bexp > now then begin
              let v = box.bv in
              R.Snapshot.drop th bs;
              discard th cu;
              bump c.t.c_gets_hit c;
              Some v
            end
            else begin
              (* Expired: never served. Lazily claim the expiry; the
                 winner of the slot mark owns the physical unlink. *)
              Sched.yield ();
              let claimed =
                R.Asp.try_mark th node.slot ~expected:(R.Snapshot.ptr bs ~tag:0)
              in
              R.Snapshot.drop th bs;
              if claimed then begin
                bump c.t.c_expiries c;
                unlink_node th head cu node
              end;
              discard th cu;
              bump c.t.c_gets_miss c;
              None
            end
          end
        end)

  let put c ~now ?ttl key v =
    let sh, th = locate c key in
    let head = sh.buckets.(bucket sh key) in
    let exp = match ttl with None -> max_int | Some d -> now + d in
    R.critically th (fun () ->
        let rec go () =
          let cu = search th head key in
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
              discard th cu;
              bump c.t.c_puts_new c;
              false
            end
            else begin
              R.Shared.drop th fresh;
              discard th cu;
              go ()
            end
          in
          if not cu.found then insert_fresh ()
          else begin
            let node = R.Snapshot.get cu.cur in
            let bs = R.Asp.get_snapshot th node.slot in
            if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
              R.Snapshot.drop th bs;
              insert_fresh ()
            end
            else begin
              let old = R.Snapshot.get bs in
              let box_sh = mk_box th v exp in
              Sched.yield ();
              if
                R.Asp.compare_and_swap th node.slot
                  ~expected:(R.Snapshot.ptr bs ~tag:0)
                  ~desired:(R.Shared.ptr box_sh)
              then begin
                (* The old box's decrement is now deferred through the
                   scheme — overwrite churn is retirement traffic. *)
                R.Shared.drop th box_sh;
                R.Snapshot.drop th bs;
                discard th cu;
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
                R.Snapshot.drop th bs;
                discard th cu;
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
    let sh, th = locate c key in
    let head = sh.buckets.(bucket sh key) in
    R.critically th (fun () ->
        let rec go () =
          let cu = search th head key in
          if not cu.found then begin
            discard th cu;
            (false, false)
          end
          else begin
            let node = R.Snapshot.get cu.cur in
            let bs = R.Asp.get_snapshot th node.slot in
            if R.Snapshot.is_null bs || R.Snapshot.is_marked bs then begin
              R.Snapshot.drop th bs;
              discard th cu;
              (false, false)
            end
            else begin
              let live = (R.Snapshot.get bs).bexp > now in
              if only_expired && live then begin
                R.Snapshot.drop th bs;
                discard th cu;
                (false, false)
              end
              else if begin
                Sched.yield ();
                R.Asp.try_mark th node.slot ~expected:(R.Snapshot.ptr bs ~tag:0)
              end
              then begin
                R.Snapshot.drop th bs;
                bump (if live then c.t.c_removes else c.t.c_expiries) c;
                unlink_node th head cu node;
                discard th cu;
                (true, live)
              end
              else begin
                R.Snapshot.drop th bs;
                discard th cu;
                go ()
              end
            end
          end
        in
        go ())

  let remove c ~now key = snd (kill c ~now ~only_expired:false key)

  (* Read-only chain fold over live snapshots; marked (physically
     dying) nodes are passed through without helping. *)
  let fold_chain th head f acc =
    R.critically th (fun () ->
        let prev_s = ref (R.Snapshot.null ()) in
        let cur = ref (R.Asp.get_snapshot th head) in
        let acc = ref acc in
        let rec loop () =
          if R.Snapshot.is_null !cur then begin
            R.Snapshot.drop th !cur;
            R.Snapshot.drop th !prev_s;
            !acc
          end
          else begin
            let node = R.Snapshot.get !cur in
            let next = R.Asp.get_snapshot th node.next in
            if not (R.Snapshot.is_marked next) then begin
              let bs = R.Asp.get_snapshot th node.slot in
              (if not (R.Snapshot.is_null bs || R.Snapshot.is_marked bs) then
                 let box = R.Snapshot.get bs in
                 acc := f !acc node.key box.bv box.bexp);
              R.Snapshot.drop th bs
            end;
            R.Snapshot.drop th !prev_s;
            prev_s := !cur;
            cur := next;
            loop ()
          end
        in
        loop ())

  let scan c ~now lo hi =
    let total = ref 0 in
    Array.iteri
      (fun s sh ->
        let th = c.ths.(s) in
        Array.iter
          (fun head ->
            total :=
              fold_chain th head
                (fun acc key _v exp ->
                  if key >= lo && key < hi && exp > now then acc + 1 else acc)
                !total)
          sh.buckets)
      c.t.shards;
    !total

  let expire_sweep c ~now =
    let claimed = ref 0 in
    Array.iteri
      (fun s sh ->
        let th = c.ths.(s) in
        Array.iter
          (fun head ->
            (* Collect candidates read-only, then claim each through
               the racing-safe kill path. *)
            let expired =
              fold_chain th head
                (fun acc key _v exp -> if exp <= now then key :: acc else acc)
                []
            in
            List.iter
              (fun key -> if fst (kill c ~now ~only_expired:true key) then incr claimed)
              expired)
          sh.buckets)
      c.t.shards;
    !claimed

  let flush c = Array.iter R.flush c.ths

  (* ------------------------------------------------------------------ *)
  (* Accounting and observability *)

  let size t ~now =
    let total = ref 0 in
    Array.iter
      (fun sh ->
        let th = R.thread sh.rt 0 in
        Array.iter
          (fun head ->
            total :=
              fold_chain th head
                (fun acc _key _v exp -> if exp > now then acc + 1 else acc)
                !total)
          sh.buckets)
      t.shards;
    !total

  let live_objects t = Simheap.live t.heap
  let peak_objects t = Simheap.peak t.heap
  let reset_peak t = Simheap.reset_peak t.heap

  let retired_backlog t =
    Array.fold_left (fun acc sh -> acc + R.retired_backlog sh.rt) 0 t.shards

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
    Array.iter
      (fun sh ->
        let th = R.thread sh.rt 0 in
        Array.iter (fun head -> R.Asp.clear th head) sh.buckets;
        R.quiesce sh.rt)
      t.shards
end
