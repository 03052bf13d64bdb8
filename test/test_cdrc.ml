(* Tests of the reference-counting core: strong pointer semantics
   (Fig 5), weak pointers (Figs 8-9), cycle behaviour, destroy-hook
   cascades, misuse detection, and multi-domain stress. Instantiated
   for all five SMR schemes. *)

module Make_tests (S : Smr.Smr_intf.S) = struct
  module R = Cdrc.Make (S)

  let t name speed f = Alcotest.test_case (R.scheme_name ^ ": " ^ name) speed f

  let with_rt ?support_weak ?slots_per_thread ~max_threads f =
    let rt = R.create ?support_weak ?slots_per_thread ~max_threads () in
    let r = f rt in
    R.quiesce rt;
    r

  (* -------------------- shared_ptr basics --------------------------- *)

  let shared_lifecycle () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 42 in
    Alcotest.(check int) "get" 42 (R.Shared.get p);
    Alcotest.(check int) "use_count 1" 1 (R.Shared.use_count p);
    let q = R.Shared.copy th p in
    Alcotest.(check int) "use_count 2" 2 (R.Shared.use_count p);
    Alcotest.(check bool) "equal" true (R.Shared.equal p q);
    Alcotest.(check int) "live objects" 1 (R.live_objects rt);
    R.Shared.drop th q;
    Alcotest.(check int) "back to 1" 1 (R.Shared.use_count p);
    R.Shared.drop th p;
    R.quiesce rt;
    Alcotest.(check int) "reclaimed" 0 (R.live_objects rt)

  let shared_null () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p : int R.shared = R.Shared.null () in
    Alcotest.(check bool) "is_null" true (R.Shared.is_null p);
    Alcotest.(check int) "count 0" 0 (R.Shared.use_count p);
    (match R.Shared.get p with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ());
    R.Shared.drop th p

  let use_after_drop_detected () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 1 in
    R.Shared.drop th p;
    (match R.Shared.get p with
    | _ -> Alcotest.fail "expected Use_after_drop"
    | exception R.Use_after_drop _ -> ());
    match R.Shared.drop th p with
    | _ -> Alcotest.fail "expected Use_after_drop on double drop"
    | exception R.Use_after_drop _ -> ()

  (* The hook runs when the last strong reference goes, and neither a
     failed upgrade nor the weak drop that frees the block runs it
     again. *)
  let destroy_hook_runs () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let destroyed = ref 0 in
    let w =
      R.critically th @@ fun () ->
      let p = R.Shared.make th ~destroy:(fun _ _ -> incr destroyed) 7 in
      let q = R.Shared.copy th p and w = R.Weak.of_shared th p in
      let cell = R.Asp.make th (R.Shared.ptr p) in
      R.Shared.drop th p;
      R.Shared.drop th q;
      R.Asp.clear th cell;
      w
    in
    R.quiesce rt;
    Alcotest.(check int) "destroy ran" 1 !destroyed;
    let l = R.Weak.lock th w in
    Alcotest.(check bool) "upgrade of the disposed object fails" true (R.Shared.is_null l);
    R.Shared.drop th l;
    R.Weak.drop th w;
    R.quiesce rt;
    Alcotest.(check int) "destroy ran once" 1 !destroyed;
    Alcotest.(check int) "freed" 0 (R.live_objects rt)

  (* -------------------- control-block lifecycle --------------------- *)

  (* [f ()] must fail with a message that ends in [what]. *)
  let fails_with what f =
    match f () with
    | _ -> Alcotest.failf "expected Failure %S" what
    | exception Failure msg ->
        let n = String.length what and m = String.length msg in
        if m < n || String.sub msg (m - n) n <> what then
          Alcotest.failf "Failure %S does not end in %S" msg what

  (* A block disposed once by hand while a strong pointer [p] and a weak
     pointer [w] still hold it; [destroyed] counts the hook's runs. *)
  let disposed_block rt th =
    let destroyed = ref 0 in
    let p = R.Shared.make th ~destroy:(fun _ _ -> incr destroyed) 7 in
    let w = R.Weak.of_shared th p in
    R.dispose rt ~pid:0 (R.Shared.ptr p);
    (p, w, destroyed)

  let dispose_claimed_once () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p, w, destroyed = disposed_block rt th in
    fails_with "double dispose" (fun () -> R.dispose rt ~pid:0 (R.Shared.ptr p));
    Alcotest.(check int) "destroy ran once" 1 !destroyed;
    Alcotest.(check int) "the block is live" 1 (R.live_objects rt);
    R.Weak.drop th w;
    Alcotest.(check int) "the last weak drop frees it" 0 (R.live_objects rt)

  let deref_of_disposed_fails () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p, w, _ = disposed_block rt th in
    fails_with "strong deref of disposed object" (fun () -> R.Shared.get p);
    R.Weak.drop th w

  (* -------------------- atomic shared pointers ---------------------- *)

  let asp_store_load () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let p = R.Shared.make th 1 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let q = R.Asp.load th cell in
    Alcotest.(check int) "loaded value" 1 (R.Shared.get q);
    Alcotest.(check int) "count: p, cell, q" 3 (R.Shared.use_count p);
    let p2 = R.Shared.make th 2 in
    R.Asp.store th cell (R.Shared.ptr p2);
    let q2 = R.Asp.load th cell in
    Alcotest.(check int) "new value" 2 (R.Shared.get q2);
    List.iter (R.Shared.drop th) [ p; q; p2; q2 ];
    R.Asp.clear th cell

  let asp_cas_semantics () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let a = R.Shared.make th 1 in
    let b = R.Shared.make th 2 in
    let cell = R.Asp.make th (R.Shared.ptr a) in
    (* Failing CAS: expected doesn't match. *)
    Alcotest.(check bool) "cas fails" false
      (R.Asp.compare_and_swap th cell ~expected:(R.Shared.ptr b)
         ~desired:(R.Shared.ptr b));
    Alcotest.(check int) "b count unchanged" 1 (R.Shared.use_count b);
    (* Succeeding CAS. *)
    Alcotest.(check bool) "cas succeeds" true
      (R.Asp.compare_and_swap th cell ~expected:(R.Shared.ptr a)
         ~desired:(R.Shared.ptr b));
    let cur = R.Asp.load th cell in
    Alcotest.(check int) "cell holds b" 2 (R.Shared.get cur);
    List.iter (R.Shared.drop th) [ a; b; cur ];
    R.Asp.clear th cell

  let asp_cas_null_transitions () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
    let cell : int R.asp = R.Asp.make_null () in
    let a = R.Shared.make th 5 in
    Alcotest.(check bool) "null -> a" true
      (R.Asp.compare_and_swap th cell ~expected:R.Ptr.null ~desired:(R.Shared.ptr a));
    Alcotest.(check bool) "a -> null" true
      (R.Asp.compare_and_swap th cell ~expected:(R.Shared.ptr a) ~desired:R.Ptr.null);
    R.Shared.drop th a);
    R.quiesce rt;
    Alcotest.(check int) "reclaimed" 0 (R.live_objects rt)

  let asp_marks () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let a = R.Shared.make th 1 in
    let cell = R.Asp.make th (R.Shared.ptr a) in
    Alcotest.(check bool) "try_mark succeeds" true
      (R.Asp.try_mark th cell ~expected:(R.Shared.ptr a));
    Alcotest.(check bool) "marked now" true (R.Ptr.is_marked (R.Asp.unsafe_ptr cell));
    Alcotest.(check bool) "try_mark again fails" false
      (R.Asp.try_mark th cell ~expected:(R.Shared.ptr a));
    let snap = R.Asp.get_snapshot th cell in
    Alcotest.(check bool) "snapshot sees mark" true (R.Snapshot.is_marked snap);
    Alcotest.(check int) "snapshot value" 1 (R.Snapshot.get snap);
    (* same_object ignores marks; equal does not. *)
    Alcotest.(check bool) "same_object" true
      (R.Ptr.same_object (R.Snapshot.ptr snap) (R.Shared.ptr a));
    Alcotest.(check bool) "equal respects mark" false
      (R.Ptr.equal (R.Snapshot.ptr snap ~tag:1) (R.Shared.ptr a));
    R.Snapshot.drop th snap;
    R.Shared.drop th a;
    R.Asp.clear th cell

  let marked_null_slots () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let cell : int R.asp = R.Asp.make_null () in
    Alcotest.(check bool) "mark null" true (R.Asp.try_mark th cell ~expected:R.Ptr.null);
    let p = R.Asp.unsafe_ptr cell in
    Alcotest.(check bool) "null and marked" true (R.Ptr.is_null p && R.Ptr.is_marked p)

  (* -------------------- snapshots (Fig 5) --------------------------- *)

  let snapshot_fast_path_no_increment () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let p = R.Shared.make th 9 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let snap = R.Asp.get_snapshot th cell in
    Alcotest.(check int) "value" 9 (R.Snapshot.get snap);
    (* Fast path must hold a guard, not a count: use_count unchanged. *)
    Alcotest.(check bool) "guard protected" true (R.Snapshot.is_protected snap);
    Alcotest.(check int) "no count bump" 2 (R.Shared.use_count p);
    R.Snapshot.drop th snap;
    R.Shared.drop th p;
    R.Asp.clear th cell

  let snapshot_slow_path_after_exhaustion () =
    (* Only meaningful for protected-pointer schemes: grab snapshots
       until try_acquire runs dry, then the slow path takes a count. *)
    if not S.is_protected_region then begin
      with_rt ~slots_per_thread:2 ~max_threads:1 @@ fun rt ->
      let th = R.thread rt 0 in
      R.critically th @@ fun () ->
      let p = R.Shared.make th 3 in
      let cell = R.Asp.make th (R.Shared.ptr p) in
      let s1 = R.Asp.get_snapshot th cell in
      let s2 = R.Asp.get_snapshot th cell in
      let s3 = R.Asp.get_snapshot th cell in
      (* dispose/weak ARs have their own slots, so only strong-side
         guards compete: with 2 slots, the third snapshot spills. *)
      Alcotest.(check bool) "fast paths" true
        (R.Snapshot.is_protected s1 && R.Snapshot.is_protected s2);
      Alcotest.(check bool) "slow path" false (R.Snapshot.is_protected s3);
      Alcotest.(check int) "slow path bumped count" 3 (R.Shared.use_count p);
      Alcotest.(check int) "all read the value" 9
        (R.Snapshot.get s1 + R.Snapshot.get s2 + R.Snapshot.get s3);
      List.iter (R.Snapshot.drop th) [ s1; s2; s3 ];
      Alcotest.(check int) "counts restored" 2 (R.Shared.use_count p);
      R.Shared.drop th p;
      R.Asp.clear th cell
    end

  let snapshot_keeps_object_alive () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let p = R.Shared.make th 11 in
        let cell = R.Asp.make th (R.Shared.ptr p) in
        let snap = R.Asp.get_snapshot th cell in
        (* Remove both strong references; the snapshot must still read. *)
        R.Shared.drop th p;
        R.Asp.store th cell R.Ptr.null;
        R.flush th;
        Alcotest.(check int) "still readable" 11 (R.Snapshot.get snap);
        Alcotest.(check bool) "object not reclaimed" true (R.live_objects rt = 1);
        R.Snapshot.drop th snap;
        R.Asp.clear th cell);
    R.quiesce rt;
    Alcotest.(check int) "reclaimed after drop" 0 (R.live_objects rt)

  let snapshot_to_shared_upgrade () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let p = R.Shared.make th 4 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let snap = R.Asp.get_snapshot th cell in
    let q = R.Snapshot.to_shared th snap in
    R.Snapshot.drop th snap;
    Alcotest.(check int) "upgraded" 4 (R.Shared.get q);
    Alcotest.(check int) "count p,cell,q" 3 (R.Shared.use_count p);
    List.iter (R.Shared.drop th) [ p; q ];
    R.Asp.clear th cell

  (* -------------------- destroy cascades ---------------------------- *)

  (* A linked chain of N nodes whose destroy hook clears the next
     pointer: dropping the head must reclaim all N without recursion
     blowing the stack. *)
  let long_chain_no_stack_overflow () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let n = 50_000 in
    let module Node = struct
      type t = { next : t R.asp }
    end in
    let head = ref (R.Shared.null ()) in
    R.critically th (fun () ->
        for _ = 1 to n do
          let node =
            R.Shared.make th
              ~destroy:(fun th (v : Node.t) -> R.Asp.clear th v.Node.next)
              { Node.next = R.Asp.make th (R.Shared.ptr !head) }
          in
          R.Shared.drop th !head;
          head := node
        done);
    Alcotest.(check int) "all live" n (R.live_objects rt);
    R.critically th (fun () -> R.Shared.drop th !head);
    R.quiesce rt;
    Alcotest.(check int) "all reclaimed" 0 (R.live_objects rt)

  (* -------------------- weak pointers (Figs 8-9) -------------------- *)

  let weak_basic_expiry () =
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 21 in
    let w = R.Weak.of_shared th p in
    Alcotest.(check bool) "not expired" false (R.Weak.expired w);
    let q = R.Weak.lock th w in
    Alcotest.(check int) "locked" 21 (R.Shared.get q);
    R.Shared.drop th q;
    R.Shared.drop th p;
    R.quiesce rt;
    Alcotest.(check bool) "expired now" true (R.Weak.expired w);
    let q2 = R.Weak.lock th w in
    Alcotest.(check bool) "lock gives null" true (R.Shared.is_null q2);
    R.Shared.drop th q2;
    (* Object destroyed, but control block alive until weak drops. *)
    R.Weak.drop th w;
    R.quiesce rt;
    Alcotest.(check int) "control block freed" 0 (R.live_objects rt)

  let weak_requires_weak_mode () =
    with_rt ~support_weak:false ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 1 in
    (match R.Weak.of_shared th p with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ());
    R.Shared.drop th p

  let awp_store_load_cas () =
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let p = R.Shared.make th 1 in
    let w = R.Weak.of_shared th p in
    let cell = R.Awp.make th (R.Weak.ptr w) in
    let w2 = R.Awp.load th cell in
    Alcotest.(check bool) "load not null" false (R.Weak.is_null w2);
    let locked = R.Weak.lock th w2 in
    Alcotest.(check int) "locked value" 1 (R.Shared.get locked);
    R.Shared.drop th locked;
    (* CAS to another object. *)
    let p2 = R.Shared.make th 2 in
    let w3 = R.Weak.of_shared th p2 in
    Alcotest.(check bool) "cas" true
      (R.Awp.compare_and_swap th cell ~expected:(R.Weak.ptr w) ~desired:(R.Weak.ptr w3));
    Alcotest.(check bool) "cas stale fails" false
      (R.Awp.compare_and_swap th cell ~expected:(R.Weak.ptr w) ~desired:(R.Weak.ptr w3));
    List.iter (R.Weak.drop th) [ w; w2; w3 ];
    List.iter (R.Shared.drop th) [ p; p2 ];
    R.Awp.clear th cell

  let weak_snapshot_reads_through_expiry () =
    (* The §4.4 property: a weak snapshot taken while the object is
       alive stays readable even if the strong count dies during its
       lifetime (the dispose is deferred). *)
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let p = R.Shared.make th 33 in
        let w = R.Weak.of_shared th p in
        let cell = R.Awp.make th (R.Weak.ptr w) in
        let ws = R.Awp.get_snapshot th cell in
        Alcotest.(check bool) "not null" false (R.Weak_snapshot.is_null ws);
        Alcotest.(check int) "reads" 33 (R.Weak_snapshot.get ws);
        (* Kill the last strong reference mid-snapshot. *)
        R.Shared.drop th p;
        R.flush th;
        Alcotest.(check int) "still readable after expiry" 33 (R.Weak_snapshot.get ws);
        R.Weak_snapshot.drop th ws;
        R.Weak.drop th w;
        R.Awp.clear th cell);
    R.quiesce rt;
    Alcotest.(check int) "reclaimed" 0 (R.live_objects rt)

  let weak_snapshot_null_on_expired () =
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let p = R.Shared.make th 1 in
        let w = R.Weak.of_shared th p in
        let cell = R.Awp.make th (R.Weak.ptr w) in
        R.Shared.drop th p;
        R.flush th;
        (* Cell still holds the (expired) pointer: snapshot is null. *)
        let ws = R.Awp.get_snapshot th cell in
        Alcotest.(check bool) "null snapshot" true (R.Weak_snapshot.is_null ws);
        R.Weak_snapshot.drop th ws;
        R.Weak.drop th w;
        R.Awp.clear th cell);
    R.quiesce rt

  let weak_snapshot_upgrade () =
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th @@ fun () ->
    let p = R.Shared.make th 8 in
    let w = R.Weak.of_shared th p in
    let cell = R.Awp.make th (R.Weak.ptr w) in
    let ws = R.Awp.get_snapshot th cell in
    let q = R.Weak_snapshot.to_shared th ws in
    Alcotest.(check int) "upgraded" 8 (R.Shared.get q);
    R.Weak_snapshot.drop th ws;
    List.iter (R.Shared.drop th) [ p; q ];
    R.Weak.drop th w;
    R.Awp.clear th cell

  (* -------------------- cycles ------------------------------------- *)

  let strong_cycle_leaks () =
    let module Node = struct
      type t = { other : t R.asp }
    end in
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let a =
          R.Shared.make th
            ~destroy:(fun th v -> R.Asp.clear th v.Node.other)
            { Node.other = R.Asp.make_null () }
        in
        let b =
          R.Shared.make th
            ~destroy:(fun th v -> R.Asp.clear th v.Node.other)
            { Node.other = R.Asp.make_null () }
        in
        R.Asp.store th (R.Shared.get a).Node.other (R.Shared.ptr b);
        R.Asp.store th (R.Shared.get b).Node.other (R.Shared.ptr a);
        R.Shared.drop th a;
        R.Shared.drop th b);
    R.quiesce rt;
    (* Reference counting cannot collect a strong cycle: both leak. *)
    Alcotest.(check int) "cycle leaks" 2 (R.live_objects rt)

  let weak_backedge_breaks_cycle () =
    let module Node = struct
      type t = { child : t R.asp; parent : t R.awp }
    end in
    with_rt ~support_weak:true ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    R.critically th (fun () ->
        let destroy th v =
          R.Asp.clear th v.Node.child;
          R.Awp.clear th v.Node.parent
        in
        let parent =
          R.Shared.make th ~destroy
            { Node.child = R.Asp.make_null (); parent = R.Awp.make_null () }
        in
        let child =
          R.Shared.make th ~destroy
            { Node.child = R.Asp.make_null (); parent = R.Awp.make_null () }
        in
        (* parent -> child strong; child -> parent weak. *)
        R.Asp.store th (R.Shared.get parent).Node.child (R.Shared.ptr child);
        let wp = R.Weak.of_shared th parent in
        R.Awp.store th (R.Shared.get child).Node.parent (R.Weak.ptr wp);
        R.Weak.drop th wp;
        (* Child can still reach a live parent through the weak edge. *)
        let w = R.Awp.load th (R.Shared.get child).Node.parent in
        let up = R.Weak.lock th w in
        Alcotest.(check bool) "parent reachable" false (R.Shared.is_null up);
        R.Shared.drop th up;
        R.Weak.drop th w;
        R.Shared.drop th child;
        R.Shared.drop th parent);
    R.quiesce rt;
    (* The weak back-edge lets the pair be reclaimed. *)
    Alcotest.(check int) "no leak" 0 (R.live_objects rt)

  (* -------------------- scoped helpers ------------------------------ *)

  let scoped_helpers () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let out =
      R.Shared.scoped th 5 (fun p ->
          Alcotest.(check int) "scoped value" 5 (R.Shared.get p);
          R.Shared.get p * 2)
    in
    Alcotest.(check int) "result" 10 out;
    (* Exception safety: the pointer is dropped even on raise. *)
    (match R.Shared.scoped th 7 (fun _ -> failwith "boom") with
    | _ -> Alcotest.fail "expected exception"
    | exception Failure _ -> ());
    R.quiesce rt;
    Alcotest.(check int) "nothing leaked" 0 (R.live_objects rt);
    R.critically th (fun () ->
        R.Shared.scoped th 3 (fun p ->
            let cell = R.Asp.make th (R.Shared.ptr p) in
            let v = R.Asp.with_snapshot th cell (fun s -> R.Snapshot.get s) in
            Alcotest.(check int) "with_snapshot" 3 v;
            R.Asp.clear th cell))

  (* -------------------- section-owned snapshots -------------------- *)

  let raises_use_after_drop what f =
    match f () with
    | () -> Alcotest.fail (what ^ ": expected Use_after_drop")
    | exception R.Use_after_drop _ -> ()

  (* A section that raises must not strand its snapshots: their guards
     go back to the pool and their counts are given back, so the next
     snapshots stay on the fast path, and a cleared cell's object is
     reclaimed by [flush]. Slot schemes are the ones a stranded guard
     starves. *)
  let raising_sections_release_snapshots () =
    if not S.is_protected_region then begin
      let slots = 8 in
      with_rt ~slots_per_thread:slots ~max_threads:1 @@ fun rt ->
      let th = R.thread rt 0 in
      let p = R.Shared.make th 5 in
      let cell = R.Asp.make th (R.Shared.ptr p) in
      let raising f =
        match R.critically th f with
        | () -> Alcotest.fail "expected Exit"
        | exception Exit -> ()
      in
      for _ = 1 to 20 do
        raising (fun () ->
            ignore (R.Asp.get_snapshot th cell);
            raise Exit)
      done;
      Alcotest.(check (pair int int)) "20 fast, 0 slow" (20, 0) (R.snapshot_stats rt);
      (* One section past its slots: [slots] guarded snapshots, then 4
         counted ones, the last of which escapes the section. *)
      let escaped = ref (R.Snapshot.null ()) in
      raising (fun () ->
          for _ = 1 to slots + 4 do
            escaped := R.Asp.get_snapshot th cell
          done;
          raise Exit);
      Alcotest.(check (pair int int)) "4 slow" (20 + slots, 4) (R.snapshot_stats rt);
      Alcotest.(check int) "counts given back" 2 (R.Shared.use_count p);
      raises_use_after_drop "escaped counted snapshot" (fun () -> R.Snapshot.drop th !escaped);
      (* Many counted snapshots, every other one dropped: the books
         grow, and the exit gives back exactly the counts of the
         rest. *)
      raising (fun () ->
          let held = List.init slots (fun _ -> R.Asp.get_snapshot th cell) in
          for i = 1 to 50 do
            let s = R.Asp.get_snapshot th cell in
            if i mod 2 = 0 then R.Snapshot.drop th s
          done;
          Alcotest.(check int) "25 counts held" 27 (R.Shared.use_count p);
          ignore held;
          raise Exit);
      Alcotest.(check int) "counts given back once" 2 (R.Shared.use_count p);
      R.critically th (fun () -> R.Snapshot.drop th (R.Asp.get_snapshot th cell));
      Alcotest.(check (pair int int)) "fast again" (21 + (2 * slots), 54) (R.snapshot_stats rt);
      R.critically th (fun () -> R.Asp.clear th cell);
      R.Shared.drop th p;
      R.flush th;
      Alcotest.(check int) "reclaimed by flush" 0 (R.live_objects rt)
    end

  (* Sections do not nest: the exit of an inner one would release the
     outer body's snapshots. The rejected inner call leaves the outer
     section and its snapshot intact. *)
  let critically_rejects_nesting () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 4 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    R.critically th (fun () ->
        let s = R.Asp.get_snapshot th cell in
        (match R.critically th (fun () -> ()) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Alcotest.(check bool) "outer snapshot still protected" true (R.Snapshot.is_protected s);
        Alcotest.(check int) "outer snapshot" 4 (R.Snapshot.get s);
        R.Snapshot.drop th s);
    R.critically th (fun () -> R.Asp.clear th cell);
    R.Shared.drop th p

  (* The fast path allocates the snapshot's one 4-word block and nothing
     else: no pair from the protect, no option, no closure, no
     free-slot cell. *)
  let snapshot_allocation_pinned () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 6 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let wcell = R.Awp.make th (R.Shared.ptr p) in
    let pairs = 10_000 in
    let words_per_pair f =
      let w0 = Gc.minor_words () in
      for _ = 1 to pairs do
        f ()
      done;
      (Gc.minor_words () -. w0) /. float pairs
    in
    R.critically th (fun () ->
        let strong = words_per_pair (fun () -> R.Snapshot.drop th (R.Asp.get_snapshot th cell)) in
        let weak =
          words_per_pair (fun () -> R.Weak_snapshot.drop th (R.Awp.get_snapshot th wcell))
        in
        let at_most_4 what words =
          let msg = Printf.sprintf "%s: %.2f words/pair <= 4" what words in
          Alcotest.(check bool) msg true (words <= 4.)
        in
        at_most_4 "snapshot" strong;
        at_most_4 "weak snapshot" weak;
        Alcotest.(check (pair int int)) "all fast" (pairs, 0) (R.snapshot_stats rt);
        R.Asp.clear th cell;
        R.Awp.clear th wcell);
    R.Shared.drop th p

  let no_op_destroy _th _v = ()

  (* A managed object is flat: a heap block is one atomic word, which
     also carries the disposed bit, a control block carries no
     per-object closure and is its own untagged slot (13 words in four
     objects; [Shared.make ~destroy] adds the owner's 3-word record and
     the optional argument's 2-word box), so a view of an owned pointer
     allocates nothing, and an atomic pointer cell is its atomic alone. *)
  let object_allocation_pinned () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let n = 1_000 in
    let words f =
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        f i
      done;
      (Gc.minor_words () -. w0) /. float n
    in
    let at_most what bound w =
      let msg = Printf.sprintf "%s: %.2f words <= %d" what w bound in
      Alcotest.(check bool) msg true (w <= float bound)
    in
    let heap = Simheap.create () in
    let blocks = Array.make n (Simheap.alloc heap) in
    at_most "Simheap.alloc" 2 (words (fun i -> blocks.(i) <- Simheap.alloc heap));
    Array.iter Simheap.free blocks;
    let ps = Array.make n (R.Shared.null ()) in
    at_most "Shared.make ~destroy" 18
      (words (fun i -> ps.(i) <- R.Shared.make th ~destroy:no_op_destroy i));
    let views = Array.make n R.Ptr.null in
    at_most "Shared.ptr" 0 (words (fun i -> views.(i) <- R.Shared.ptr ps.(i)));
    at_most "Ptr.with_tag p 0" 0 (words (fun i -> views.(i) <- R.Ptr.with_tag views.(i) 0));
    let cells = Array.make n (R.Asp.make_null ()) in
    at_most "Asp.make_null" 2 (words (fun i -> cells.(i) <- R.Asp.make_null ()));
    let wcells = Array.make n (R.Awp.make_null ()) in
    at_most "Awp.make_null" 2 (words (fun i -> wcells.(i) <- R.Awp.make_null ()));
    Array.iter (R.Shared.drop th) ps

  (* A store's delayed decrement of the value it replaces allocates its
     retire record alone (a header and seven fields): the run function is
     the runtime's, built once, and the queues thread the record's link.
     Amortized scans and the drains that run the decrements are
     included. *)
  let delayed_decrement_allocation_pinned () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let a = R.Shared.make th 1 and b = R.Shared.make th 2 in
    let cell = R.Asp.make th (R.Shared.ptr a) in
    let n = 1_000 in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      R.Asp.store th cell (R.Shared.ptr (if i land 1 = 0 then a else b))
    done;
    let words = (Gc.minor_words () -. w0) /. float n in
    let msg = Printf.sprintf "Asp.store: %.2f words <= 8" words in
    Alcotest.(check bool) msg true (words <= 8.);
    R.Asp.clear th cell;
    R.Shared.drop th a;
    R.Shared.drop th b

  let snapshot_use_after_drop () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 2 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let wcell = R.Awp.make th (R.Shared.ptr p) in
    R.critically th (fun () ->
        let s = R.Asp.get_snapshot th cell in
        R.Snapshot.drop th s;
        let check what f = raises_use_after_drop ("Snapshot." ^ what) (fun () -> ignore (f s)) in
        check "is_null" R.Snapshot.is_null;
        check "is_marked" R.Snapshot.is_marked;
        check "tag" R.Snapshot.tag;
        check "get" R.Snapshot.get;
        check "ptr" (fun s -> R.Snapshot.ptr s);
        check "to_shared" (R.Snapshot.to_shared th);
        check "use_count" R.Snapshot.use_count;
        check "is_protected" R.Snapshot.is_protected;
        check "of_snapshot" (R.Weak.of_snapshot th);
        check "drop" (R.Snapshot.drop th);
        let ws = R.Awp.get_snapshot th wcell in
        R.Weak_snapshot.drop th ws;
        let check what f =
          raises_use_after_drop ("Weak_snapshot." ^ what) (fun () -> ignore (f ws))
        in
        check "is_null" R.Weak_snapshot.is_null;
        check "is_marked" R.Weak_snapshot.is_marked;
        check "tag" R.Weak_snapshot.tag;
        check "get" R.Weak_snapshot.get;
        check "ptr" (fun ws -> R.Weak_snapshot.ptr ws);
        check "to_shared" (R.Weak_snapshot.to_shared th);
        check "is_protected" R.Weak_snapshot.is_protected;
        check "drop" (R.Weak_snapshot.drop th);
        R.Asp.clear th cell;
        R.Awp.clear th wcell);
    R.Shared.drop th p

  (* A snapshot that escapes its section and is dropped in a later one
     must raise, and release nothing: its section's exit released its
     guard, which the slot pool may have handed to a snapshot of the
     later section, and gave back its count, which a counted snapshot of
     the later section may hold again. Run with 2 slots, so that the
     live snapshot gets the escaped one's slot, and the third snapshot
     of a section is counted. The live snapshots must then outlive the
     clearing of their object's last references and a flush. *)
  let escaped_snapshot_drop_raises () =
    with_rt ~slots_per_thread:2 ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 1 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let escaped = R.critically th (fun () -> R.Asp.get_snapshot th cell) in
    R.critically th (fun () ->
        let live = R.Asp.get_snapshot th cell in
        raises_use_after_drop "escaped snapshot" (fun () -> R.Snapshot.drop th escaped);
        R.Asp.clear th cell;
        R.Shared.drop th p;
        R.flush th;
        Alcotest.(check int) "live snapshot reads" 1 (R.Snapshot.get live);
        R.Snapshot.drop th live);
    R.flush th;
    Alcotest.(check int) "reclaimed" 0 (R.live_objects rt);
    if not S.is_protected_region then begin
      let p = R.Shared.make th 2 in
      let cell = R.Asp.make th (R.Shared.ptr p) in
      let three () = List.init 3 (fun _ -> R.Asp.get_snapshot th cell) in
      let escaped = R.critically th (fun () -> List.nth (three ()) 2) in
      Alcotest.(check bool) "escaped one is counted" false (R.Snapshot.is_protected escaped);
      R.critically th (fun () ->
          let live = three () in
          raises_use_after_drop "escaped counted snapshot" (fun () -> R.Snapshot.drop th escaped);
          (* The guarded two go, so that only the count keeps the
             object. *)
          List.iter (R.Snapshot.drop th) [ List.nth live 0; List.nth live 1 ];
          R.Asp.clear th cell;
          R.Shared.drop th p;
          R.flush th;
          Alcotest.(check int) "live counted snapshot reads" 2 (R.Snapshot.get (List.nth live 2));
          R.Snapshot.drop th (List.nth live 2));
      R.flush th;
      Alcotest.(check int) "reclaimed (counted)" 0 (R.live_objects rt)
    end

  (* [begin_critical_section] and [end_critical_section] are the two
     halves of [critically]: the exit releases the guard of a snapshot
     left undropped and numbers the next section, so that the
     snapshot's drop in a later section raises, and a [critically]
     inside an open section is rejected. *)
  let raw_sections_keep_critically () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 3 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    R.Shared.drop th p;
    R.begin_critical_section th;
    let escaped = R.Asp.get_snapshot th cell in
    R.end_critical_section th;
    R.begin_critical_section th;
    R.Asp.clear th cell;
    R.end_critical_section th;
    R.flush th;
    R.flush th;
    Alcotest.(check int) "the exit released the snapshot's guard" 0 (R.live_objects rt);
    R.begin_critical_section th;
    raises_use_after_drop "snapshot of an earlier section" (fun () -> R.Snapshot.drop th escaped);
    (match R.critically th (fun () -> ()) with
    | () -> Alcotest.fail "expected Invalid_argument for a section inside an open one"
    | exception Invalid_argument _ -> ());
    R.end_critical_section th;
    R.critically th (fun () -> ())

  (* A section holds more snapshots than the pid's guard slots have
     bits. A scheme that hands every protect the same guard (the region
     schemes and IBR) holds it once, so no snapshot takes the slow path;
     a slot scheme fills its fresh slots and counts the rest. *)
  let snapshots_past_the_slot_mask () =
    with_rt ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let p = R.Shared.make th 7 in
    let cell = R.Asp.make th (R.Shared.ptr p) in
    let n = 2 * Sys.int_size in
    R.critically th (fun () ->
        let held = List.init n (fun _ -> R.Asp.get_snapshot th cell) in
        List.iter (fun s -> Alcotest.(check int) "reads" 7 (R.Snapshot.get s)) held);
    let slow = if S.is_protected_region then 0 else n - Smr.Knobs.default_slots_per_thread in
    Alcotest.(check (pair int int)) "fast, slow" (n - slow, slow) (R.snapshot_stats rt);
    Alcotest.(check int) "counts given back" 2 (R.Shared.use_count p);
    R.critically th (fun () -> R.Asp.clear th cell);
    R.Shared.drop th p

  (* The scheme underneath, counting the acquires CDRC makes and the
     guards it releases. *)
  module Tally = struct
    let acquires = ref 0
    let releases = ref 0

    include S

    let try_acquire t ~pid id =
      incr acquires;
      S.try_acquire t ~pid id

    let acquire t ~pid id =
      incr acquires;
      S.acquire t ~pid id

    let release t ~pid g =
      incr releases;
      S.release t ~pid g
  end

  module RT = Cdrc.Make (Tally)

  (* Exact atomics per protection and its drop, in a [Sched.Atomic]
     counting window, and the scheme calls the pair makes, section exit
     included, measured with telemetry off and again with it on. A
     scheme whose confirm is trivial protects every read of the section:
     its snapshots read the cell once, and no protection takes a guard
     (no release at the drop or at the exit); its acquire only counts,
     so it is made only with telemetry on (DESIGN.md §7). The slot
     schemes' footprints are pinned as measured, and telemetry moves
     none of them. Expected: (gets, sets, exchanges, cas, faa) per op,
     for a strong snapshot, a load and a weak snapshot, and the releases
     each op makes. A slot scheme also pins a snapshot taken while the
     section holds every fresh slot: the counted fallback, with its
     atomics, its scheme acquires (the failed fresh one and the
     reserved one) and its releases. *)
  let protection_atomics_pinned () =
    let snap, load, weak, releases =
      match S.name with
      | "EBR" | "Hyaline" -> ((1, 0, 0, 0, 0), (1, 0, 0, 0, 2), (2, 0, 0, 0, 0), (0, 0, 0))
      | "IBR" ->
          (* Both guards of a weak snapshot are IBR's one guard 0, held
             once. *)
          ((4, 0, 0, 0, 0), (4, 0, 0, 0, 2), (7, 0, 0, 0, 0), (1, 1, 1))
      | "HP" -> ((3, 2, 0, 0, 0), (3, 2, 0, 0, 2), (5, 4, 0, 0, 0), (1, 1, 2))
      | "HE" -> ((5, 2, 0, 0, 0), (5, 2, 0, 0, 2), (9, 4, 0, 0, 0), (1, 1, 2))
      | "PTB" -> ((3, 2, 1, 0, 0), (3, 2, 1, 0, 2), (5, 4, 2, 0, 0), (1, 1, 2))
      | other -> Alcotest.failf "no pinned footprint for %s" other
    in
    (* The counted snapshot: atomics per op, releases and scheme
       acquires per op. *)
    let counted =
      match S.name with
      | "HP" -> Some ((4, 2, 0, 0, 2), 1, 2)
      | "HE" -> Some ((6, 2, 0, 0, 2), 1, 2)
      | "PTB" -> Some ((4, 2, 1, 0, 2), 1, 2)
      | _ -> None
    in
    Alcotest.(check bool) "region schemes release nothing" S.confirm_is_trivial (releases = (0, 0, 0));
    let rt = RT.create ~max_threads:1 () in
    let th = RT.thread rt 0 in
    let p = RT.Shared.make th 6 in
    let cell = RT.Asp.make th (RT.Shared.ptr p) in
    let wcell = RT.Awp.make th (RT.Shared.ptr p) in
    let ops = 3 in
    (* [held] snapshots, taken before the window and dropped after it,
       occupy the section's fresh slots; their scheme calls are not
       counted. *)
    let measure ?(held = 0) what (gets, sets, exchanges, cas, faa) released f =
      let what = R.scheme_name ^ " " ^ what in
      RT.critically th (fun () ->
          let holds = List.init held (fun _ -> RT.Asp.get_snapshot th cell) in
          Tally.acquires := 0;
          Tally.releases := 0;
          Sched.Atomic.reset ();
          Sched.Atomic.counting (fun () ->
              for _ = 1 to ops do
                f ()
              done);
          let releases = !Tally.releases in
          List.iter (RT.Snapshot.drop th) holds;
          Tally.releases := releases);
      let c = Sched.Atomic.snapshot () in
      let per n = n / ops in
      Alcotest.(check (list int))
        (what ^ ": gets, sets, exchanges, cas, faa per op")
        [ gets; sets; exchanges; cas; faa ]
        [ per c.gets; per c.sets; per c.exchanges; per c.cas; per c.faa ];
      Alcotest.(check int) (what ^ ": atomics") ((gets + sets + exchanges + cas + faa) * ops)
        (Sched.Atomic.total c);
      Alcotest.(check int) (what ^ ": releases") (released * ops) !Tally.releases;
      !Tally.acquires / ops
    in
    let r_snap, r_load, r_weak = releases in
    let acquires telemetry =
      let mode = if telemetry then "telemetry on, " else "telemetry off, " in
      Obs.Metrics.set_enabled telemetry;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () ->
          let a_snap =
            measure (mode ^ "get_snapshot + drop") snap r_snap (fun () ->
                RT.Snapshot.drop th (RT.Asp.get_snapshot th cell))
          in
          let a_load =
            measure (mode ^ "Asp.load + Shared.drop") load r_load (fun () ->
                RT.Shared.drop th (RT.Asp.load th cell))
          in
          let a_weak =
            measure (mode ^ "Awp.get_snapshot + drop") weak r_weak (fun () ->
                RT.Weak_snapshot.drop th (RT.Awp.get_snapshot th wcell))
          in
          [ a_snap; a_load; a_weak ])
    in
    Alcotest.(check (list int)) "acquires per op, telemetry off"
      (if S.confirm_is_trivial then [ 0; 0; 0 ] else [ 1; 1; 2 ])
      (acquires false);
    Alcotest.(check (list int)) "acquires per op, telemetry on" [ 1; 1; 2 ] (acquires true);
    Option.iter
      (fun (atomics, released, acquired) ->
        Alcotest.(check int) "counted snapshot: acquires per op" acquired
          (measure ~held:Smr.Knobs.default_slots_per_thread "counted get_snapshot + drop" atomics
             released (fun () -> RT.Snapshot.drop th (RT.Asp.get_snapshot th cell))))
      counted;
    Sched.Atomic.reset ();
    RT.critically th (fun () ->
        RT.Asp.clear th cell;
        RT.Awp.clear th wcell);
    RT.Shared.drop th p;
    RT.quiesce rt

  (* -------------------- multi-domain stress ------------------------- *)

  let stress_asp ~threads ~iters () =
    let rt = R.create ~support_weak:false ~max_threads:threads () in
    let nslots = 8 in
    let cells = Array.init nslots (fun _ -> R.Asp.make_null ()) in
    (* Seed the cells. *)
    let th0 = R.thread rt 0 in
    Array.iter
      (fun c ->
        let p = R.Shared.make th0 0 in
        R.Asp.store th0 c (R.Shared.ptr p);
        R.Shared.drop th0 p)
      cells;
    let failures = Atomic.make 0 in
    let worker pid () =
      let th = R.thread rt pid in
      let rng = Repro_util.Rng.create ~seed:(pid + 1) in
      try
        for i = 1 to iters do
          R.critically th (fun () ->
              let c = cells.(Repro_util.Rng.int rng nslots) in
              match Repro_util.Rng.int rng 4 with
              | 0 ->
                  (* load + deref *)
                  let p = R.Asp.load th c in
                  if not (R.Shared.is_null p) then ignore (Sys.opaque_identity (R.Shared.get p));
                  R.Shared.drop th p
              | 1 ->
                  (* snapshot + deref *)
                  let s = R.Asp.get_snapshot th c in
                  if not (R.Snapshot.is_null s) then
                    ignore (Sys.opaque_identity (R.Snapshot.get s));
                  R.Snapshot.drop th s
              | 2 ->
                  (* store a fresh object *)
                  let p = R.Shared.make th i in
                  R.Asp.store th c (R.Shared.ptr p);
                  R.Shared.drop th p
              | _ ->
                  (* cas current -> fresh *)
                  let s = R.Asp.get_snapshot th c in
                  let p = R.Shared.make th i in
                  ignore
                    (R.Asp.compare_and_swap th c ~expected:(R.Snapshot.ptr s)
                       ~desired:(R.Shared.ptr p));
                  R.Shared.drop th p;
                  R.Snapshot.drop th s)
        done;
        R.flush th
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s] stress worker %d: %s\n%!" R.scheme_name pid
          (Printexc.to_string e)
    in
    let domains = List.init threads (fun pid -> Domain.spawn (worker pid)) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no failures" 0 (Atomic.get failures);
    Array.iter (fun c -> R.Asp.clear th0 c) cells;
    R.quiesce rt;
    Alcotest.(check int) "leak free" 0 (R.live_objects rt)

  let stress_weak ~threads ~iters () =
    let rt = R.create ~support_weak:true ~max_threads:threads () in
    let strong_cell = R.Asp.make_null () in
    let weak_cell : int R.awp = R.Awp.make_null () in
    let th0 = R.thread rt 0 in
    let p0 = R.Shared.make th0 0 in
    R.Asp.store th0 strong_cell (R.Shared.ptr p0);
    R.Shared.drop th0 p0;
    let failures = Atomic.make 0 in
    let worker pid () =
      let th = R.thread rt pid in
      let rng = Repro_util.Rng.create ~seed:(pid + 99) in
      try
        for i = 1 to iters do
          R.critically th (fun () ->
              match Repro_util.Rng.int rng 5 with
              | 0 ->
                  (* publish a weak view of the current strong value *)
                  let s = R.Asp.get_snapshot th strong_cell in
                  if not (R.Snapshot.is_null s) then begin
                    let w = R.Weak.of_snapshot th s in
                    R.Awp.store th weak_cell (R.Weak.ptr w);
                    R.Weak.drop th w
                  end;
                  R.Snapshot.drop th s
              | 1 ->
                  (* replace the strong value: older objects expire *)
                  let p = R.Shared.make th i in
                  R.Asp.store th strong_cell (R.Shared.ptr p);
                  R.Shared.drop th p
              | 2 ->
                  (* weak snapshot: deref must be safe even if expired *)
                  let ws = R.Awp.get_snapshot th weak_cell in
                  if not (R.Weak_snapshot.is_null ws) then
                    ignore (Sys.opaque_identity (R.Weak_snapshot.get ws));
                  R.Weak_snapshot.drop th ws
              | 3 ->
                  (* load + lock: null result is fine *)
                  let w = R.Awp.load th weak_cell in
                  let s = R.Weak.lock th w in
                  if not (R.Shared.is_null s) then
                    ignore (Sys.opaque_identity (R.Shared.get s));
                  R.Shared.drop th s;
                  R.Weak.drop th w
              | _ ->
                  let s = R.Asp.load th strong_cell in
                  if not (R.Shared.is_null s) then
                    ignore (Sys.opaque_identity (R.Shared.get s));
                  R.Shared.drop th s)
        done;
        R.flush th
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s] weak stress %d: %s\n%!" R.scheme_name pid
          (Printexc.to_string e)
    in
    let domains = List.init threads (fun pid -> Domain.spawn (worker pid)) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no failures" 0 (Atomic.get failures);
    R.Asp.clear th0 strong_cell;
    R.Awp.clear th0 weak_cell;
    R.quiesce rt;
    Alcotest.(check int) "leak free" 0 (R.live_objects rt)

  (* -------------------- crash recovery ------------------------------ *)

  (* Pid 0 overwrites a cell until it crashes on its 5th retire (a
     Faulty_smr crash, after the record is queued), dying with the
     deferred decrements of the values it displaced still parked. Each
     value owns a child through its destroy hook, so running a parked
     decrement cascades. Strong-only mode disposes through the queue
     rather than by a retire, so every retire of pid 0 is a store's
     decrement and the crash never strikes inside a drain. Weak mode
     retires its disposals, so the crash can strike inside a drain of
     pid 0's queue, stranding the records ejected into it behind the
     one that raised. Once pid 0 is abandoned, the survivor's flush must
     run them all: only the cell's current value and its child stay
     live, and Simheap raises on any use-after-free or double free. *)
  let abandon_after_crash ~support_weak () =
    let plan =
      Fault.Fault_plan.create [ { site = On_retire; pid = Some 0; at = 5; action = Crash } ]
    in
    let module FS =
      Fault.Faulty_smr.Make
        (S)
        (struct
          let plan = plan
        end)
    in
    let module RF = Cdrc.Make (FS) in
    let rt = RF.create ~support_weak ~max_threads:2 () in
    let th0 = RF.thread rt 0 and th1 = RF.thread rt 1 in
    let make i =
      let child = RF.Shared.make th1 (-i) in
      RF.Shared.make th1 ~destroy:(fun th _ -> RF.Shared.drop th child) i
    in
    let cell =
      RF.critically th1 (fun () ->
          let p = make 0 in
          let c = RF.Asp.make th1 (RF.Shared.ptr p) in
          RF.Shared.drop th1 p;
          c)
    in
    let crashed = ref false in
    for i = 1 to 8 do
      let p = make i in
      (if not !crashed then
         try RF.critically th0 (fun () -> RF.Asp.store th0 cell (RF.Shared.ptr p))
         with Fault.Fault_plan.Crashed 0 -> crashed := true);
      RF.Shared.drop th1 p
    done;
    Alcotest.(check bool) "pid 0 crashed" true !crashed;
    (* Under weak mode the parked records may all sit in pid 0's queue,
       outside the scheme's backlog. *)
    if support_weak then
      Alcotest.(check bool) "displaced values live at the crash" true (RF.live_objects rt > 2)
    else Alcotest.(check bool) "decrements parked at the crash" true (RF.retired_backlog rt > 0);
    RF.abandon rt ~pid:0;
    RF.flush th1;
    Alcotest.(check int) "nothing left parked" 0 (RF.retired_backlog rt);
    Alcotest.(check int) "only the cell's value and its child live" 2 (RF.live_objects rt);
    RF.critically th1 (fun () -> RF.Asp.clear th1 cell);
    RF.flush th1;
    Alcotest.(check int) "leak free" 0 (RF.live_objects rt)

  (* Pid 1 stops inside a section, holding a guarded and, its one slot
     taken, a counted snapshot of a cell's object. [abandon] must give
     back the count as well as the guard: once pid 0 clears the cell,
     two flushes and a quiesce reclaim the object. *)
  let abandon_gives_back_counts () =
    let rt = R.create ~support_weak:false ~slots_per_thread:1 ~max_threads:2 () in
    let th0 = R.thread rt 0 and th1 = R.thread rt 1 in
    let p = R.Shared.make th0 5 in
    let cell = R.Asp.make th0 (R.Shared.ptr p) in
    R.Shared.drop th0 p;
    R.begin_critical_section th1;
    let _guarded = R.Asp.get_snapshot th1 cell in
    let counted = R.Asp.get_snapshot th1 cell in
    Alcotest.(check (pair int int)) "fast, slow" (1, 1) (R.snapshot_stats rt);
    Alcotest.(check int) "the counted snapshot holds a count" 2 (R.Snapshot.use_count counted);
    R.abandon rt ~pid:1;
    R.critically th0 (fun () -> R.Asp.clear th0 cell);
    R.flush th0;
    R.flush th0;
    R.quiesce rt;
    Alcotest.(check int) "leak free" 0 (R.live_objects rt)

  (* -------------------- carried deferred decrements ---------------- *)

  (* A scan releases a batch of deferred decrements at once, and an
     ordinary eject runs a slice of them, leaving the rest queued
     for the pid's next eject. [carry th] leaves such a queue: one scan's
     worth of stores, each deferring the decrement of the value it
     displaces. Hyaline releases each decrement at its own eject, so it
     never carries. *)
  let carry rt th =
    let a = R.Shared.make th 1 and b = R.Shared.make th 2 in
    let cell = R.Asp.make th (R.Shared.ptr a) in
    for i = 1 to Smr.Knobs.default_cleanup_freq do
      R.Asp.store th cell (R.Shared.ptr (if i land 1 = 0 then a else b))
    done;
    if S.name <> "Hyaline" then
      Alcotest.(check bool) "decrements carried" true (R.retired_backlog rt > 0);
    (a, b, cell)

  let release th (a, b, cell) =
    R.Asp.clear th cell;
    R.Shared.drop th a;
    R.Shared.drop th b

  (* A strong-only disposal runs before [drop] returns, ahead of the
     carried queue. *)
  let drop_frees_despite_carried_backlog () =
    with_rt ~support_weak:false ~max_threads:1 @@ fun rt ->
    let th = R.thread rt 0 in
    let held = carry rt th in
    let live = R.live_objects rt and destroyed = ref false in
    let p = R.Shared.make th ~destroy:(fun _ _ -> destroyed := true) 3 in
    R.Shared.drop th p;
    Alcotest.(check bool) "destroyed before drop returns" true !destroyed;
    Alcotest.(check int) "freed before drop returns" live (R.live_objects rt);
    release th held

  let abandon_with_carried_backlog () =
    let rt = R.create ~support_weak:false ~max_threads:2 () in
    let th0 = R.thread rt 0 and th1 = R.thread rt 1 in
    let held = carry rt th1 in
    R.abandon rt ~pid:1;
    release th0 held;
    R.flush th0;
    Alcotest.(check int) "nothing parked" 0 (R.retired_backlog rt);
    R.quiesce rt;
    Alcotest.(check int) "leak free" 0 (R.live_objects rt)

  let tests =
    [
      t "shared lifecycle" `Quick shared_lifecycle;
      t "shared null" `Quick shared_null;
      t "use after drop" `Quick use_after_drop_detected;
      t "destroy hook" `Quick destroy_hook_runs;
      t "dispose claimed once" `Quick dispose_claimed_once;
      t "deref of a disposed object fails" `Quick deref_of_disposed_fails;
      t "asp store/load" `Quick asp_store_load;
      t "asp cas" `Quick asp_cas_semantics;
      t "asp cas null" `Quick asp_cas_null_transitions;
      t "asp marks" `Quick asp_marks;
      t "marked null" `Quick marked_null_slots;
      t "snapshot fast path" `Quick snapshot_fast_path_no_increment;
      t "snapshot slow path" `Quick snapshot_slow_path_after_exhaustion;
      t "snapshot keeps alive" `Quick snapshot_keeps_object_alive;
      t "snapshot upgrade" `Quick snapshot_to_shared_upgrade;
      t "long chain reclamation" `Slow long_chain_no_stack_overflow;
      t "weak expiry" `Quick weak_basic_expiry;
      t "weak needs weak mode" `Quick weak_requires_weak_mode;
      t "awp store/load/cas" `Quick awp_store_load_cas;
      t "weak snapshot through expiry" `Quick weak_snapshot_reads_through_expiry;
      t "weak snapshot null on expired" `Quick weak_snapshot_null_on_expired;
      t "weak snapshot upgrade" `Quick weak_snapshot_upgrade;
      t "scoped helpers" `Quick scoped_helpers;
      t "raising sections release snapshots" `Quick raising_sections_release_snapshots;
      t "critically rejects nesting" `Quick critically_rejects_nesting;
      t "snapshot allocation pinned" `Quick snapshot_allocation_pinned;
      t "object allocation pinned" `Quick object_allocation_pinned;
      t "delayed decrement allocation pinned" `Quick delayed_decrement_allocation_pinned;
      t "snapshot use after drop" `Quick snapshot_use_after_drop;
      t "escaped snapshot's drop raises" `Quick escaped_snapshot_drop_raises;
      t "atomics per protection pinned" `Quick protection_atomics_pinned;
      t "raw sections keep critically's guarantees" `Quick raw_sections_keep_critically;
      t "snapshots past the slot mask" `Quick snapshots_past_the_slot_mask;
      t "strong cycle leaks" `Quick strong_cycle_leaks;
      t "weak edge breaks cycle" `Quick weak_backedge_breaks_cycle;
      t "abandon after crash" `Quick (abandon_after_crash ~support_weak:false);
      t "abandon after crash (weak)" `Quick (abandon_after_crash ~support_weak:true);
      t "strong drop frees despite a carried backlog" `Quick drop_frees_despite_carried_backlog;
      t "abandon with a carried backlog" `Quick abandon_with_carried_backlog;
      t "stress strong" `Slow (stress_asp ~threads:4 ~iters:10_000);
      t "stress weak" `Slow (stress_weak ~threads:4 ~iters:10_000);
    ]
    @
    (* Only a slot scheme takes a counted snapshot with one slot free. *)
    if S.is_protected_region then []
    else [ t "abandon gives back counted snapshots" `Quick abandon_gives_back_counts ]
end

module T_ebr = Make_tests (Smr.Ebr)
module T_ibr = Make_tests (Smr.Ibr)
module T_hyaline = Make_tests (Smr.Hyaline)
module T_hp = Make_tests (Smr.Hp)
module T_he = Make_tests (Smr.Hazard_eras)
module T_ptb = Make_tests (Smr.Ptb)

let () =
  Alcotest.run "cdrc"
    [
      ("rcebr", T_ebr.tests);
      ("rcibr", T_ibr.tests);
      ("rchyaline", T_hyaline.tests);
      ("rchp", T_hp.tests);
      ("rche", T_he.tests);
      ("rcptb", T_ptb.tests);
    ]
