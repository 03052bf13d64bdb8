(* Tests of the generalized acquire-retire layer itself (Fig 2):
   allocation birth tags, critical-section wrappers, deferred-op
   cascades, and pid routing of ejected operations. *)

module Make_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

  (* A retire record running [f] once [m] is unprotected. *)
  let on m f = Smr.Deferred.of_fun ~id:(Ar.ident m) ~birth:(Ar.birth_tag m) f

  (* Retire [m] the one way a scope allows: publish it in a private
     cell, unlink it, and retire it under the witness. *)
  let retire_fresh ar ~pid m =
    let cell = Atomic.make (Some m) in
    Ar.scope ar ~pid
      {
        f =
          (fun s ->
            let seen = Atomic.get cell in
            Option.iter
              (fun w -> Ar.retire_free s w Ar.unguarded)
              (Ar.unlink s cell ~seen ~desired:None m));
      }

  let birth_tags_monotone () =
    let ar = Ar.create ~epoch_freq:5 ~max_threads:1 () in
    let prev = ref min_int in
    for _ = 1 to 100 do
      let m = Ar.alloc ar ~pid:0 () in
      Alcotest.(check bool) "monotone" true (Ar.birth_tag m >= !prev);
      prev := Ar.birth_tag m;
      retire_fresh ar ~pid:0 m
    done;
    (* IBR/HE advance their clock every 5 allocations here; the tag
       must actually move for the epoch-based schemes. *)
    if S.name = "IBR" || S.name = "HE" then
      Alcotest.(check bool) "epochs advanced" true (!prev >= 19);
    Ar.quiesce ar;
    Alcotest.(check int) "no leak" 0 (Simheap.live (Ar.heap ar))

  let critically_ends_section_on_exception () =
    let ar = Ar.create ~max_threads:1 () in
    (match Ar.scope ar ~pid:0 { f = (fun _ -> failwith "boom") } with
    | _ -> Alcotest.fail "expected exception"
    | exception Failure _ -> ());
    (* If the section leaked, this retire would never eject. *)
    retire_fresh ar ~pid:0 (Ar.alloc ar ~pid:0 ());
    Ar.quiesce ar;
    Alcotest.(check int) "section was closed" 0 (Simheap.live (Ar.heap ar))

  let cascading_retires () =
    (* A deferred op that retires another object: quiesce must chase
       the cascade to the end (linked chain of 50 objects). *)
    let ar = Ar.create ~max_threads:1 () in
    let ms = Array.init 50 (fun i -> Ar.alloc ar ~pid:0 i) in
    let rec retire_chain i =
      if i < 50 then
        Ar.retire ar ~pid:0
          (on ms.(i) (fun _pid ->
               Ar.discard ms.(i);
               retire_chain (i + 1)))
    in
    retire_chain 0;
    Ar.quiesce ar;
    Alcotest.(check int) "whole chain reclaimed" 0 (Simheap.live (Ar.heap ar))

  let ejected_ops_receive_executing_pid () =
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:3 () in
    let m = Ar.alloc ar ~pid:0 () in
    let seen = ref (-1) in
    Ar.retire ar ~pid:0 (on m (fun pid -> seen := pid));
    (* Drain from pid 2: the op must observe pid 2 (Hyaline can eject
       cross-thread; the closure must not assume the retiring pid). *)
    Ar.flush ar ~pid:2;
    (* For per-thread-queue schemes the entry lives in pid 0's queue, so
       drain it there too. *)
    if !seen = -1 then Ar.flush ar ~pid:0;
    Alcotest.(check bool) "pid routed" true (!seen = 0 || !seen = 2);
    Ar.discard m

  let try_acquire_settles_on_current_value () =
    let ar = Ar.create ~max_threads:1 () in
    let m1 = Ar.alloc ar ~pid:0 1 in
    let cell = Atomic.make m1 in
    Ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            let v, g = Ar.protect s ~ident:Ar.ident cell in
            if not (Ar.guarded g) then Alcotest.fail "unexpected exhaustion with free slots";
            Alcotest.(check int) "value" 1 (Ar.get s g v);
            Ar.release s g);
      };
    Ar.discard m1;
    Ar.quiesce ar

  (* A pid that stopped inside its section leaves the section to
     [abandon]: recycled, the pid opens a section again, with every
     slot free, and closing it releases no slot twice. *)
  let abandon_frees_the_section () =
    let ar = Ar.create ~slots_per_thread:2 ~max_threads:2 () in
    let m = Ar.alloc ar ~pid:0 () in
    let cell = Atomic.make m in
    Ar.open_section ar ~pid:1;
    ignore (Ar.acquire_own ar.Ar.scopes.(1) ~ident:Ar.ident cell);
    Ar.abandon ar ~pid:1;
    let guarded_of_three () =
      Ar.scope ar ~pid:1
        {
          f =
            (fun s ->
              List.length
                (List.filter
                   (fun _ -> Ar.guarded (snd (Ar.protect s ~ident:Ar.ident cell)))
                   [ 1; 2; 3 ]));
        }
    in
    let slots = if S.is_protected_region then 3 else 2 in
    Alcotest.(check int) "the recycled pid's section opens" slots (guarded_of_three ());
    Alcotest.(check int) "its exit released each slot once" slots (guarded_of_three ());
    Ar.discard m;
    Ar.quiesce ar

  let tests =
    [
      t "birth tags monotone" birth_tags_monotone;
      t "critically closes on exception" critically_ends_section_on_exception;
      t "cascading retires" cascading_retires;
      t "ejected ops receive pid" ejected_ops_receive_executing_pid;
      t "try_acquire settles" try_acquire_settles_on_current_value;
      t "abandon frees the pid's section" abandon_frees_the_section;
    ]
end

module T_ebr = Make_tests (Smr.Ebr)
module T_ibr = Make_tests (Smr.Ibr)
module T_hyaline = Make_tests (Smr.Hyaline)
module T_hp = Make_tests (Smr.Hp)
module T_he = Make_tests (Smr.Hazard_eras)
module T_ptb = Make_tests (Smr.Ptb)

(* ------------------------ protection scopes ----------------------- *)

(* Whatever a body does, its scope leaves no slot held and no critical
   section open: what a lint rule used to approximate on the syntax of
   each structure now holds by construction. *)

module Hp_ar = Acquire_retire.Make (Smr.Hp)

let hold_both s a b =
  let _, ga = Hp_ar.protect s ~ident:Hp_ar.ident a in
  let _, gb = Hp_ar.protect s ~ident:Hp_ar.ident b in
  if not (Hp_ar.guarded ga && Hp_ar.guarded gb) then Alcotest.fail "both slots should be free"

let two_slot_cells () =
  let ar = Hp_ar.create ~slots_per_thread:2 ~max_threads:1 () in
  (ar, Atomic.make (Hp_ar.alloc ar ~pid:0 1), Atomic.make (Hp_ar.alloc ar ~pid:0 2))

let raising_body_frees_slots () =
  let ar, a, b = two_slot_cells () in
  (match Hp_ar.scope ar ~pid:0 { f = (fun s -> hold_both s a b; failwith "boom") } with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Hp_ar.scope ar ~pid:0 { f = (fun s -> hold_both s a b) }

let unreleased_guards_freed () =
  let ar, a, b = two_slot_cells () in
  for _ = 1 to 3 do
    Hp_ar.scope ar ~pid:0 { f = (fun s -> hold_both s a b) }
  done

(* EBR reclaims an entry only once every open section began after its
   retirement, so pid 1's retire is reclaimed iff pid 0's scopes really
   closed their sections. The manually opened section is the control:
   it must pin the same retire. *)
module Ebr_ar = Acquire_retire.Make (Smr.Ebr)

let reclaimed_after ar =
  let m = Ebr_ar.alloc ar ~pid:1 () in
  Ebr_ar.retire ar ~pid:1
    (Smr.Deferred.of_fun ~id:(Ebr_ar.ident m) ~birth:(Ebr_ar.birth_tag m) (fun _ ->
         Ebr_ar.discard m));
  Ebr_ar.flush ar ~pid:1;
  not (Ebr_ar.is_live m)

let scope_unpins_frontier () =
  let ar = Ebr_ar.create ~max_threads:2 () in
  let cell = Atomic.make (Ebr_ar.alloc ar ~pid:0 ()) in
  let protect s = ignore (Ebr_ar.protect s ~ident:Ebr_ar.ident cell) in
  (match Ebr_ar.scope ar ~pid:0 { f = (fun s -> protect s; failwith "boom") } with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "closed after a raise" true (reclaimed_after ar);
  Ebr_ar.scope ar ~pid:0 { f = protect };
  Alcotest.(check bool) "closed after unreleased guards" true (reclaimed_after ar);
  Ebr_ar.open_section ar ~pid:0;
  Alcotest.(check bool) "an open section pins it" false (reclaimed_after ar);
  Ebr_ar.close_section ar ~pid:0

(* Scopes do not nest: an inner scope's exit would close the section
   the outer body still relies on. The rejected inner scope leaves the
   outer one open (pid 1's retire stays pinned), and the pid's next
   scope opens normally. *)
let nested_scope_rejected () =
  let ar = Ebr_ar.create ~max_threads:2 () in
  Ebr_ar.scope ar ~pid:0
    {
      f =
        (fun _ ->
          (match Ebr_ar.scope ar ~pid:0 { f = (fun _ -> ()) } with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ());
          Alcotest.(check bool) "outer section still open" false (reclaimed_after ar));
    };
  Alcotest.(check bool) "closed after the outer exit" true (reclaimed_after ar);
  Ebr_ar.scope ar ~pid:0 { f = (fun _ -> ()) }

(* A crash inside the body propagates as itself, after the scope has
   dropped the crashed pid's announcement: the survivor can reclaim the
   object pid 0 was protecting, before any [abandon]. *)
let crash_propagates_unwrapped () =
  let plan =
    Fault.Fault_plan.create
      [ { site = On_confirm; pid = Some 0; at = 1; action = Crash } ]
  in
  let module Ar =
    Acquire_retire.Make
      (Fault.Faulty_smr.Make
         (Smr.Hp)
         (struct
           let plan = plan
         end))
  in
  let ar = Ar.create ~max_threads:2 () in
  let m = Ar.alloc ar ~pid:1 () in
  let cell = Atomic.make m in
  (match Ar.scope ar ~pid:0 { f = (fun s -> ignore (Ar.protect s ~ident:Ar.ident cell)) } with
  | () -> Alcotest.fail "expected the crash"
  | exception Fault.Fault_plan.Crashed 0 -> ());
  let m' = Ar.alloc ar ~pid:1 () in
  Ar.scope ar ~pid:1
    {
      f =
        (fun s ->
          Option.iter
            (fun w -> Ar.retire_free s w Ar.unguarded)
            (Ar.unlink s cell ~seen:m ~desired:m' m));
    };
  Ar.flush ar ~pid:1;
  Alcotest.(check bool) "announcement dropped" false (Ar.is_live m)

(* ------------------------ guard generations ----------------------- *)

(* A guard goes stale when it is released, by [release] or by the
   [retire_free] it is handed: a [get] or [release] through it raises
   instead of reading a node that may be freed, or dropping a
   protection taken since. Region schemes hand every protect the same
   scheme slot, so the guards of one scope must still go stale one at a
   time. *)
module Guard_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

  let stale f =
    match f () with
    | _ -> Alcotest.fail "expected the stale guard to raise"
    | exception Invalid_argument _ -> ()

  let get_after_retire_raises () =
    let ar = Ar.create ~max_threads:1 () in
    let m = Ar.alloc ar ~pid:0 1 and m' = Ar.alloc ar ~pid:0 2 in
    let cell = Atomic.make m in
    Ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            let m, g = Ar.protect s ~ident:Ar.ident cell in
            Alcotest.(check int) "read through the live guard" 1 (Ar.get s g m);
            match Ar.unlink s cell ~seen:m ~desired:m' m with
            | None -> Alcotest.fail "the unlink CAS should succeed"
            | Some w ->
                Ar.retire_free s w g;
                stale (fun () -> Ar.get s g m);
                stale (fun () -> Ar.release s g));
      };
    Ar.flush ar ~pid:0;
    Alcotest.(check bool) "retired node reclaimed" false (Ar.is_live m)

  let released_guard_alone_goes_stale () =
    let ar = Ar.create ~max_threads:1 () in
    let cell = Atomic.make (Ar.alloc ar ~pid:0 7) in
    Ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            let a, ga = Ar.protect s ~ident:Ar.ident cell in
            let b, gb = Ar.protect s ~ident:Ar.ident cell in
            Ar.release s ga;
            stale (fun () -> Ar.get s ga a);
            Alcotest.(check int) "the other guard still reads" 7 (Ar.get s gb b);
            let c, gc = Ar.protect s ~ident:Ar.ident cell in
            stale (fun () -> Ar.release s ga);
            Alcotest.(check int) "a reused slot's guard reads" 7 (Ar.get s gc c));
      }

  let tests =
    [
      t "get after retire_free through the consumed guard raises" get_after_retire_raises;
      t "a released guard goes stale alone" released_guard_alone_goes_stale;
    ]
end

module G_ebr = Guard_tests (Smr.Ebr)
module G_hp = Guard_tests (Smr.Hp)

(* A second release of an old guard, after [protect] reused its slot,
   used to release the new protection: pid 1 could then free the node
   pid 0 still reads. The stale release must raise and leave the new
   guard's slot announced. *)
let stale_release_keeps_protection () =
  let ar = Hp_ar.create ~slots_per_thread:2 ~max_threads:2 () in
  let c1 = Atomic.make (Hp_ar.alloc ar ~pid:0 1) in
  let c2 = Atomic.make (Hp_ar.alloc ar ~pid:0 2) in
  let m =
    Hp_ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            let _, g1 = Hp_ar.protect s ~ident:Hp_ar.ident c1 in
            Hp_ar.release s g1;
            let m, g2 = Hp_ar.protect s ~ident:Hp_ar.ident c2 in
            (match Hp_ar.release s g1 with
            | () -> Alcotest.fail "expected the stale release to raise"
            | exception Invalid_argument _ -> ());
            let m' = Hp_ar.alloc ar ~pid:1 3 in
            Hp_ar.scope ar ~pid:1
              {
                f =
                  (fun s1 ->
                    Option.iter
                      (fun w -> Hp_ar.retire_free s1 w Hp_ar.unguarded)
                      (Hp_ar.unlink s1 c2 ~seen:m ~desired:m' m));
              };
            Hp_ar.eject ~force:true ar ~pid:1;
            Alcotest.(check int) "still protected" 2 (Hp_ar.get s g2 m);
            m);
      }
  in
  Hp_ar.eject ~force:true ar ~pid:1;
  Alcotest.(check bool) "reclaimed once the scope exits" false (Hp_ar.is_live m)

(* ------------------------ the deferred-op queue ------------------- *)

(* The pid's queue runs what an eject releases, never reentrantly: a
   deferred op that retires a successor and ejects runs to its end
   before the successor starts, however long the chain. Every eject
   below is forced and nothing is protected, so without the queue each
   nested eject would run the successor inside its retirer. *)
module Queue_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

  (* A retire record running [f] once [m] is unprotected. *)
  let on m f = Smr.Deferred.of_fun ~id:(Ar.ident m) ~birth:(Ar.birth_tag m) f

  let nested_eject_runs_after () =
    let ar = Ar.create ~max_threads:1 () in
    let depth = ref 0 and deepest = ref 0 and order = ref [] in
    let op name body _pid =
      incr depth;
      deepest := max !deepest !depth;
      order := name :: !order;
      body ();
      decr depth
    in
    let a = Ar.alloc ar ~pid:0 () and b = Ar.alloc ar ~pid:0 () in
    Ar.retire ar ~pid:0
      (on a
         (op "a" (fun () ->
              Ar.discard a;
              Ar.retire ar ~pid:0 (on b (op "b" (fun () -> Ar.discard b)));
           Ar.eject ~force:true ar ~pid:0;
              Alcotest.(check bool) "successor not run inside the op" true (Ar.is_live b))));
    Ar.eject ~force:true ar ~pid:0;
    Alcotest.(check (list string)) "both ran, in order" [ "a"; "b" ] (List.rev !order);
    Alcotest.(check int) "nesting depth" 1 !deepest;
    Alcotest.(check int) "nothing left" 0 (Simheap.live (Ar.heap ar))

  let long_chain_flushes () =
    let ar = Ar.create ~max_threads:1 () in
    let n = 100_000 in
    let ms = Array.init n (fun i -> Ar.alloc ar ~pid:0 i) in
    let rec link i _pid =
      Ar.discard ms.(i);
      if i + 1 < n then begin
        Ar.retire ar ~pid:0 (on ms.(i + 1) (link (i + 1)));
        Ar.eject ~force:true ar ~pid:0
      end
    in
    Ar.retire ar ~pid:0 (on ms.(0) (link 0));
    Ar.flush ar ~pid:0;
    Alcotest.(check int) "whole chain reclaimed" 0 (Simheap.live (Ar.heap ar))

  (* With telemetry off, a retire allocates its retire record alone (a
     header and seven fields), and a scanning eject that releases every
     entry, plus the drain that runs them, allocates nothing: the queues
     and the batch are threaded through the records. *)
  let record_words = 8

  let pipeline_allocation_pinned () =
    let n = 1_000 in
    let ar = Ar.create ~cleanup_freq:(4 * n) ~max_threads:1 () in
    let cells = Array.init n (fun i -> Atomic.make (Some (Ar.alloc ar ~pid:0 i))) in
    let retire_words =
      Ar.scope ar ~pid:0
        {
          f =
            (fun s ->
              let unlink cell =
                match Atomic.get cell with
                | Some m as seen -> Option.get (Ar.unlink s cell ~seen ~desired:None m)
                | None -> assert false
              in
              let ws = Array.map unlink cells in
              let w0 = Gc.minor_words () in
              for i = 0 to n - 1 do
                Ar.retire_free s ws.(i) Ar.unguarded
              done;
              Gc.minor_words () -. w0);
        }
    in
    Alcotest.(check int) "pending" n (Ar.total_pending ar);
    let w0 = Gc.minor_words () in
    Ar.eject ~force:true ar ~pid:0;
    let eject_words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "words per retire" record_words
      (int_of_float (Float.round (retire_words /. float n)));
    Alcotest.(check (float 0.)) "scanning eject and drain" 0. eject_words;
    Alcotest.(check int) "all reclaimed" 0 (Simheap.live (Ar.heap ar))

  (* An ordinary eject runs at most a slice of its queue,
     [max 1 (cleanup_freq / 4)]: 16 at the default [cleanup_freq]. *)
  let slice = max 1 (Smr.Knobs.default_cleanup_freq / 4)

  (* Retire [n] fresh objects as [pid], nothing protected, so the next
     scan releases them all; each record counts its run in [ran]. *)
  let retire_many ar ~pid n ran =
    for i = 1 to n do
      let m = Ar.alloc ar ~pid i in
      Ar.retire ar ~pid
        (on m (fun _ ->
             incr ran;
             Ar.discard m))
    done

  let eject_runs_one_slice () =
    let ar = Ar.create ~max_threads:1 () in
    let n = 1_000 and ran = ref 0 in
    retire_many ar ~pid:0 n ran;
    Ar.eject ar ~pid:0;
    Alcotest.(check int) "one slice ran" slice !ran;
    Alcotest.(check int) "the rest stay queued and counted" (n - slice) (Ar.total_pending ar);
    Alcotest.(check int) "their objects live" (n - slice) (Simheap.live (Ar.heap ar));
    Ar.flush ar ~pid:0

  let ejects_and_flush_empty_the_queue () =
    let ar = Ar.create ~max_threads:1 () in
    let n = 1_000 and ran = ref 0 and ejects = ref 0 in
    retire_many ar ~pid:0 n ran;
    while Ar.total_pending ar > 0 && !ejects <= n do
      Ar.eject ar ~pid:0;
      incr ejects
    done;
    Alcotest.(check int) "every record ran" n !ran;
    Alcotest.(check int) "one slice per eject" ((n + slice - 1) / slice) !ejects;
    retire_many ar ~pid:0 n ran;
    Ar.eject ar ~pid:0;
    Ar.flush ar ~pid:0;
    Alcotest.(check int) "one flush ran the rest" (2 * n) !ran;
    Alcotest.(check int) "nothing pending" 0 (Ar.total_pending ar);
    Alcotest.(check int) "all reclaimed" 0 (Simheap.live (Ar.heap ar))

  (* [run] runs its record, and the records that record runs in turn,
     before it returns, ahead of the queue an eject left and charged to
     no slice. *)
  let run_goes_ahead_of_a_carried_queue () =
    let ar = Ar.create ~max_threads:1 () in
    let n = 1_000 and ran = ref 0 in
    retire_many ar ~pid:0 n ran;
    Ar.eject ar ~pid:0;
    let chain = ref 0 in
    let rec link k _pid =
      incr chain;
      if k > 0 then Ar.run ar ~pid:0 (Smr.Deferred.of_fun (link (k - 1)))
    in
    Ar.run ar ~pid:0 (Smr.Deferred.of_fun (link 99));
    Alcotest.(check int) "the whole run chain ran" 100 !chain;
    Alcotest.(check int) "the carried records waited" slice !ran;
    Ar.eject ar ~pid:0;
    Alcotest.(check int) "the next eject runs the next slice" (2 * slice) !ran;
    Ar.flush ar ~pid:0

  (* Records an eject left queued go with an abandoned pid to the
     survivors: nothing leaks. *)
  let abandon_hands_over_carried_records () =
    let ar = Ar.create ~max_threads:2 () in
    let n = 1_000 and ran = ref 0 in
    retire_many ar ~pid:1 n ran;
    Ar.eject ar ~pid:1;
    Ar.abandon ar ~pid:1;
    Ar.flush ar ~pid:0;
    Alcotest.(check int) "the survivor ran the rest" n !ran;
    Alcotest.(check int) "nothing pending" 0 (Ar.total_pending ar);
    Ar.quiesce ar;
    Alcotest.(check int) "leak free" 0 (Simheap.live (Ar.heap ar))

  let tests =
    [
      t "one ordinary eject runs one slice" eject_runs_one_slice;
      t "ejects, then one flush, empty the queue" ejects_and_flush_empty_the_queue;
      t "run goes ahead of a carried queue" run_goes_ahead_of_a_carried_queue;
      t "abandon hands over carried records" abandon_hands_over_carried_records;
      t "nested eject runs the successor after the op" nested_eject_runs_after;
      t "100,000-link chain flushes" long_chain_flushes;
      t "retire pipeline allocation pinned" pipeline_allocation_pinned;
    ]
end

module Q_ebr = Queue_tests (Smr.Ebr)
module Q_hp = Queue_tests (Smr.Hp)

(* [quiesce] runs what the scheme drains through pid 0's queue, so an op
   that raises leaves the ops behind it queued for the next [quiesce],
   as a drain does, instead of dropping them. *)
let quiesce_keeps_ops_after_a_raise () =
  let ar = Ebr_ar.create ~max_threads:1 () in
  let ms = Array.init 3 (fun i -> Ebr_ar.alloc ar ~pid:0 i) in
  Array.iteri
    (fun i m ->
      Ebr_ar.retire ar ~pid:0
        (Smr.Deferred.of_fun ~id:(Ebr_ar.ident m) ~birth:(Ebr_ar.birth_tag m) (fun _ ->
             if i = 0 then failwith "boom" else Ebr_ar.discard m)))
    ms;
  (match Ebr_ar.quiesce ar with
  | () -> Alcotest.fail "expected the raise"
  | exception Failure _ -> ());
  (* The scheme is drained; the backlog is the two ops left queued. *)
  Alcotest.(check int) "scheme drained" 0 (Ebr_ar.Smr_impl.retired_count ar.Ebr_ar.smr ~pid:0);
  Alcotest.(check int) "two ops queued" 2 (Smr.Retire_queue.size ar.Ebr_ar.pending.(0));
  Alcotest.(check int) "queued ops counted" 2 (Ebr_ar.total_pending ar);
  Alcotest.(check int) "nothing freed yet" 3 (Simheap.live (Ebr_ar.heap ar));
  Ebr_ar.quiesce ar;
  Alcotest.(check int) "the ops behind the raise ran" 1 (Simheap.live (Ebr_ar.heap ar))

(* Hyaline's retired entries are global: [total_pending] must count
   each once, not once per pid. *)
let hyaline_backlog_exact () =
  let module Ar = Acquire_retire.Make (Smr.Hyaline) in
  let ar = Ar.create ~max_threads:4 () in
  (* An open section on pid 1 keeps every entry pending. *)
  Ar.open_section ar ~pid:1;
  let cell = Atomic.make None in
  for _ = 1 to 10 do
    let m = Ar.alloc ar ~pid:0 () in
    Atomic.set cell (Some m);
    Ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            let seen = Atomic.get cell in
            Option.iter
              (fun w -> Ar.retire_free s w Ar.unguarded)
              (Ar.unlink s cell ~seen ~desired:None m));
      }
  done;
  Alcotest.(check int) "backlog" 10 (Ar.total_pending ar);
  Ar.close_section ar ~pid:1;
  Ar.flush ar ~pid:0;
  Alcotest.(check int) "drained" 0 (Ar.total_pending ar);
  Alcotest.(check int) "reclaimed" 0 (Simheap.live (Ar.heap ar))

(* A pid stalled inside its section pins every Hyaline entry retired
   since it entered. At teardown [quiesce] must reclaim them anyway, as
   the other schemes return every retired record, and a section exit
   replayed afterwards must not run any of them a second time. *)
let hyaline_quiesce_past_a_stalled_section () =
  let module Ar = Acquire_retire.Make (Smr.Hyaline) in
  let ar = Ar.create ~max_threads:2 () in
  Ar.open_section ar ~pid:1;
  let runs = ref 0 in
  for i = 1 to 3 do
    let m = Ar.alloc ar ~pid:0 i in
    Ar.retire ar ~pid:0
      (Smr.Deferred.of_fun ~id:(Ar.ident m) ~birth:(Ar.birth_tag m) (fun _ ->
           incr runs;
           Ar.discard m))
  done;
  Alcotest.(check int) "pinned by the stalled section" 3 (Ar.total_pending ar);
  Ar.quiesce ar;
  Alcotest.(check int) "every entry ran" 3 !runs;
  Alcotest.(check int) "nothing left live" 0 (Simheap.live (Ar.heap ar));
  Alcotest.(check int) "nothing pending" 0 (Ar.total_pending ar);
  Ar.close_section ar ~pid:1;
  Ar.quiesce ar;
  Alcotest.(check int) "a late exit runs nothing twice" 3 !runs

let scope_tests =
  [
    Alcotest.test_case "HP: raising body frees both slots" `Quick raising_body_frees_slots;
    Alcotest.test_case "HP: unreleased guards freed at exit" `Quick unreleased_guards_freed;
    Alcotest.test_case "EBR: scope exit unpins the frontier" `Quick scope_unpins_frontier;
    Alcotest.test_case "crash propagates unwrapped" `Quick crash_propagates_unwrapped;
    Alcotest.test_case "EBR: nested scope rejected" `Quick nested_scope_rejected;
    Alcotest.test_case "EBR: quiesce keeps the ops after a raise" `Quick
      quiesce_keeps_ops_after_a_raise;
    Alcotest.test_case "HP: a stale release keeps the slot's new protection" `Quick
      stale_release_keeps_protection;
  ]
  @ G_ebr.tests @ G_hp.tests

let () =
  Alcotest.run "acquire_retire"
    [
      ("ebr", T_ebr.tests);
      ("ibr", T_ibr.tests);
      ("hyaline", T_hyaline.tests);
      ("hp", T_hp.tests);
      ("hazard_eras", T_he.tests);
      ("ptb", T_ptb.tests);
      ("scope", scope_tests);
      ("queue", Q_ebr.tests @ Q_hp.tests);
      ( "backlog",
        [
          Alcotest.test_case "Hyaline: total_pending is exact" `Quick hyaline_backlog_exact;
          Alcotest.test_case "Hyaline: quiesce reclaims past a stalled section" `Quick
            hyaline_quiesce_past_a_stalled_section;
        ] );
    ]
