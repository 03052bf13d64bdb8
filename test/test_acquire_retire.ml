(* Tests of the generalized acquire-retire layer itself (Fig 2):
   allocation birth tags, critical-section wrappers, deferred-op
   cascades, and pid routing of ejected operations. *)

module Make_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

  let birth_tags_monotone () =
    let ar = Ar.create ~epoch_freq:5 ~max_threads:1 () in
    let prev = ref min_int in
    for _ = 1 to 100 do
      let m = Ar.alloc ar ~pid:0 () in
      Alcotest.(check bool) "monotone" true (m.Ar.birth >= !prev);
      prev := m.Ar.birth;
      Ar.retire_free ar ~pid:0 m
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
    let m = Ar.alloc ar ~pid:0 () in
    Ar.retire_free ar ~pid:0 m;
    Ar.quiesce ar;
    Alcotest.(check int) "section was closed" 0 (Simheap.live (Ar.heap ar))

  let cascading_retires () =
    (* A deferred op that retires another object: quiesce must chase
       the cascade to the end (linked chain of 50 objects). *)
    let ar = Ar.create ~max_threads:1 () in
    let ms = Array.init 50 (fun i -> Ar.alloc ar ~pid:0 i) in
    let rec retire_chain i =
      if i < 50 then
        Ar.retire ar ~pid:0 ms.(i) (fun _pid ->
            Simheap.free ms.(i).Ar.block;
            retire_chain (i + 1))
    in
    retire_chain 0;
    Ar.quiesce ar;
    Alcotest.(check int) "whole chain reclaimed" 0 (Simheap.live (Ar.heap ar))

  let ejected_ops_receive_executing_pid () =
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:3 () in
    let m = Ar.alloc ar ~pid:0 () in
    let seen = ref (-1) in
    Ar.retire ar ~pid:0 m (fun pid -> seen := pid);
    (* Drain from pid 2: the op must observe pid 2 (Hyaline can eject
       cross-thread; the closure must not assume the retiring pid). *)
    Ar.flush ar ~pid:2;
    (* For per-thread-queue schemes the entry lives in pid 0's queue, so
       drain it there too. *)
    if !seen = -1 then Ar.flush ar ~pid:0;
    Alcotest.(check bool) "pid routed" true (!seen = 0 || !seen = 2);
    Simheap.free m.Ar.block

  let try_acquire_settles_on_current_value () =
    let ar = Ar.create ~max_threads:1 () in
    let m1 = Ar.alloc ar ~pid:0 1 in
    let cell = Atomic.make m1 in
    Ar.scope ar ~pid:0
      {
        f =
          (fun s ->
            match Ar.protect s ~ident:Ar.ident cell with
            | Some (v, g) ->
                Alcotest.(check int) "value" 1 (Ar.get v);
                Ar.release s g
            | None -> Alcotest.fail "unexpected exhaustion with free slots");
      };
    Ar.retire_free ar ~pid:0 m1;
    Ar.quiesce ar

  let tests =
    [
      t "birth tags monotone" birth_tags_monotone;
      t "critically closes on exception" critically_ends_section_on_exception;
      t "cascading retires" cascading_retires;
      t "ejected ops receive pid" ejected_ops_receive_executing_pid;
      t "try_acquire settles" try_acquire_settles_on_current_value;
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
  match (Hp_ar.protect s ~ident:Hp_ar.ident a, Hp_ar.protect s ~ident:Hp_ar.ident b) with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "both slots should be free"

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
  Ebr_ar.retire_free ar ~pid:1 m;
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
  Ebr_ar.begin_critical_section ar ~pid:0;
  Alcotest.(check bool) "an open section pins it" false (reclaimed_after ar);
  Ebr_ar.end_critical_section ar ~pid:0

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
  Ar.retire_free ar ~pid:1 m;
  Ar.flush ar ~pid:1;
  Alcotest.(check bool) "announcement dropped" false (Ar.is_live m)

(* ------------------------ the deferred-op queue ------------------- *)

(* The pid's queue runs what an eject releases, never reentrantly: a
   deferred op that retires a successor and ejects runs to its end
   before the successor starts, however long the chain. Every eject
   below is forced and nothing is protected, so without the queue each
   nested eject would run the successor inside its retirer. *)
module Queue_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

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
    Ar.retire ar ~pid:0 a
      (op "a" (fun () ->
           Simheap.free a.Ar.block;
           Ar.retire ar ~pid:0 b (op "b" (fun () -> Simheap.free b.Ar.block));
           Ar.eject ~force:true ar ~pid:0;
           Alcotest.(check bool) "successor not run inside the op" true (Ar.is_live b)));
    Ar.eject ~force:true ar ~pid:0;
    Alcotest.(check (list string)) "both ran, in order" [ "a"; "b" ] (List.rev !order);
    Alcotest.(check int) "nesting depth" 1 !deepest;
    Alcotest.(check int) "nothing left" 0 (Simheap.live (Ar.heap ar))

  let long_chain_flushes () =
    let ar = Ar.create ~max_threads:1 () in
    let n = 100_000 in
    let ms = Array.init n (fun i -> Ar.alloc ar ~pid:0 i) in
    let rec link i _pid =
      Simheap.free ms.(i).Ar.block;
      if i + 1 < n then begin
        Ar.retire ar ~pid:0 ms.(i + 1) (link (i + 1));
        Ar.eject ~force:true ar ~pid:0
      end
    in
    Ar.retire ar ~pid:0 ms.(0) (link 0);
    Ar.flush ar ~pid:0;
    Alcotest.(check int) "whole chain reclaimed" 0 (Simheap.live (Ar.heap ar))

  let tests =
    [
      t "nested eject runs the successor after the op" nested_eject_runs_after;
      t "100,000-link chain flushes" long_chain_flushes;
    ]
end

module Q_ebr = Queue_tests (Smr.Ebr)
module Q_hp = Queue_tests (Smr.Hp)

(* Hyaline's retired entries are global: [total_pending] must count
   each once, not once per pid. *)
let hyaline_backlog_exact () =
  let module Ar = Acquire_retire.Make (Smr.Hyaline) in
  let ar = Ar.create ~max_threads:4 () in
  (* An open section on pid 1 keeps every entry pending. *)
  Ar.begin_critical_section ar ~pid:1;
  for _ = 1 to 10 do
    Ar.retire_free ar ~pid:0 (Ar.alloc ar ~pid:0 ())
  done;
  Alcotest.(check int) "backlog" 10 (Ar.total_pending ar);
  Ar.end_critical_section ar ~pid:1;
  Ar.flush ar ~pid:0;
  Alcotest.(check int) "drained" 0 (Ar.total_pending ar);
  Alcotest.(check int) "reclaimed" 0 (Simheap.live (Ar.heap ar))

let scope_tests =
  [
    Alcotest.test_case "HP: raising body frees both slots" `Quick raising_body_frees_slots;
    Alcotest.test_case "HP: unreleased guards freed at exit" `Quick unreleased_guards_freed;
    Alcotest.test_case "EBR: scope exit unpins the frontier" `Quick scope_unpins_frontier;
    Alcotest.test_case "crash propagates unwrapped" `Quick crash_propagates_unwrapped;
    Alcotest.test_case "EBR: nested scope rejected" `Quick nested_scope_rejected;
  ]

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
        [ Alcotest.test_case "Hyaline: total_pending is exact" `Quick hyaline_backlog_exact ] );
    ]
