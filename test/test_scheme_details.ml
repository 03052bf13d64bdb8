(* White-box tests of scheme-specific mechanics that the generic suite
   cannot see: EBR/IBR epoch bookkeeping, HE eras, HP announcement
   counting, PTB hand-off, Hyaline active counting and truncation, and
   the Leaky baseline. *)

module Ident = Smr.Ident

let mk_obj () = ref 0

(* ---------------- EBR ---------------- *)

let ebr_epoch_advances_on_alloc () =
  let s = Smr.Ebr.create ~epoch_freq:10 ~max_threads:1 () in
  Alcotest.(check int) "epoch 0" 0 (Smr.Ebr.current_epoch s);
  for _ = 1 to 9 do
    ignore (Smr.Ebr.alloc_hook s ~pid:0)
  done;
  Alcotest.(check int) "not yet" 0 (Smr.Ebr.current_epoch s);
  ignore (Smr.Ebr.alloc_hook s ~pid:0);
  Alcotest.(check int) "advanced after 10 allocs" 1 (Smr.Ebr.current_epoch s);
  Smr.Ebr.advance_epoch s;
  Alcotest.(check int) "manual advance" 2 (Smr.Ebr.current_epoch s)

let ebr_stale_announcement_blocks () =
  let s = Smr.Ebr.create ~cleanup_freq:1 ~max_threads:2 () in
  Smr.Ebr.begin_critical_section s ~pid:1;
  (* Epoch advances while pid 1 stays announced at epoch 0. *)
  for _ = 1 to 5 do
    Smr.Ebr.advance_epoch s
  done;
  let hits = ref 0 in
  Smr.Ebr.retire s ~pid:0
    (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:0 (fun _ -> incr hits));
  Smr.Deferred.run_all ~pid:0 (Smr.Ebr.eject ~force:true s ~pid:0);
  Alcotest.(check int) "old announcement blocks new retire" 0 !hits;
  Smr.Ebr.end_critical_section s ~pid:1;
  Smr.Deferred.run_all ~pid:0 (Smr.Ebr.eject ~force:true s ~pid:0);
  Alcotest.(check int) "released" 1 !hits

(* ---------------- IBR ---------------- *)

let ibr_interval_blocks_only_overlaps () =
  let s = Smr.Ibr.create ~cleanup_freq:1 ~epoch_freq:1 ~max_threads:2 () in
  (* Object A born at epoch ~0. *)
  let birth_a = Smr.Ibr.alloc_hook s ~pid:0 in
  (* Reader enters at the current epoch. *)
  Smr.Ibr.begin_critical_section s ~pid:1;
  (* Retire A now: its interval [birth_a, now] intersects the reader's
     announced interval -> blocked. *)
  let hits_a = ref 0 in
  Smr.Ibr.retire s ~pid:0
    (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:birth_a (fun _ -> incr hits_a));
  Smr.Deferred.run_all ~pid:0 (Smr.Ibr.eject ~force:true s ~pid:0);
  Alcotest.(check int) "overlapping interval blocked" 0 !hits_a;
  (* Object B is born and retired entirely after the reader's interval
     (the reader never confirms again): safe to eject immediately. *)
  for _ = 1 to 3 do
    Smr.Ibr.advance_epoch s
  done;
  let birth_b = Smr.Ibr.alloc_hook s ~pid:0 in
  let hits_b = ref 0 in
  Smr.Ibr.retire s ~pid:0
    (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:birth_b (fun _ -> incr hits_b));
  Smr.Deferred.run_all ~pid:0 (Smr.Ibr.eject ~force:true s ~pid:0);
  Alcotest.(check int) "disjoint interval ejected" 1 !hits_b;
  Alcotest.(check int) "overlapping still blocked" 0 !hits_a;
  Smr.Ibr.end_critical_section s ~pid:1;
  Smr.Deferred.run_all ~pid:0 (Smr.Ibr.eject ~force:true s ~pid:0);
  Alcotest.(check int) "released after section" 1 !hits_a

let ibr_confirm_extends_interval () =
  let s = Smr.Ibr.create ~epoch_freq:1 ~max_threads:1 () in
  Smr.Ibr.begin_critical_section s ~pid:0;
  let id = Ident.of_val (mk_obj ()) in
  let g = Smr.Ibr.acquire s ~pid:0 id in
  Alcotest.(check bool) "stable epoch confirms" true (Smr.Ibr.confirm s ~pid:0 g id);
  Smr.Ibr.advance_epoch s;
  Alcotest.(check bool) "advanced epoch forces retry" false (Smr.Ibr.confirm s ~pid:0 g id);
  Alcotest.(check bool) "second confirm settles" true (Smr.Ibr.confirm s ~pid:0 g id);
  Smr.Ibr.release s ~pid:0 g;
  Smr.Ibr.end_critical_section s ~pid:0

(* ---------------- HE ---------------- *)

let he_confirm_tracks_era () =
  let s = Smr.Hazard_eras.create ~epoch_freq:1 ~max_threads:1 () in
  let id = Ident.of_val (mk_obj ()) in
  let g = Option.get (Smr.Hazard_eras.try_acquire s ~pid:0 id) in
  Alcotest.(check bool) "same era confirms" true (Smr.Hazard_eras.confirm s ~pid:0 g id);
  Smr.Hazard_eras.advance_era s;
  Alcotest.(check bool) "new era fails once" false (Smr.Hazard_eras.confirm s ~pid:0 g id);
  Alcotest.(check bool) "then settles" true (Smr.Hazard_eras.confirm s ~pid:0 g id);
  Smr.Hazard_eras.release s ~pid:0 g

let he_era_protects_interval () =
  let s = Smr.Hazard_eras.create ~cleanup_freq:1 ~epoch_freq:1 ~max_threads:2 () in
  let birth = Smr.Hazard_eras.alloc_hook s ~pid:0 in
  (* Reader announces the current era. *)
  let id = Ident.of_val (mk_obj ()) in
  let g = Option.get (Smr.Hazard_eras.try_acquire s ~pid:1 id) in
  let hits = ref 0 in
  Smr.Hazard_eras.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth (fun _ -> incr hits));
  Smr.Deferred.run_all ~pid:0 (Smr.Hazard_eras.eject ~force:true s ~pid:0);
  Alcotest.(check int) "era inside interval blocks" 0 !hits;
  Smr.Hazard_eras.release s ~pid:1 g;
  Smr.Deferred.run_all ~pid:0 (Smr.Hazard_eras.eject ~force:true s ~pid:0);
  Alcotest.(check int) "released" 1 !hits

(* ---------------- HP ---------------- *)

let hp_announced_count () =
  let s = Smr.Hp.create ~slots_per_thread:4 ~max_threads:2 () in
  Alcotest.(check int) "initially none" 0 (Smr.Hp.announced_count s);
  let id = Ident.of_val (mk_obj ()) in
  let g1 = Option.get (Smr.Hp.try_acquire s ~pid:0 id) in
  let g2 = Smr.Hp.acquire s ~pid:1 id in
  Alcotest.(check int) "two announced" 2 (Smr.Hp.announced_count s);
  Smr.Hp.release s ~pid:0 g1;
  Smr.Hp.release s ~pid:1 g2;
  Alcotest.(check int) "cleared" 0 (Smr.Hp.announced_count s)

let hp_confirm_reannounces () =
  let s = Smr.Hp.create ~max_threads:1 () in
  let a = Ident.of_val (mk_obj ()) in
  let b = Ident.of_val (mk_obj ()) in
  let g = Option.get (Smr.Hp.try_acquire s ~pid:0 a) in
  Alcotest.(check bool) "same id confirms" true (Smr.Hp.confirm s ~pid:0 g a);
  Alcotest.(check bool) "different id re-announces" false (Smr.Hp.confirm s ~pid:0 g b);
  Alcotest.(check bool) "now b confirms" true (Smr.Hp.confirm s ~pid:0 g b);
  Smr.Hp.release s ~pid:0 g

(* ---------------- PTB ---------------- *)

let ptb_handoff_roundtrip () =
  let s = Smr.Ptb.create ~cleanup_freq:1 ~max_threads:2 () in
  let obj = mk_obj () in
  let id = Ident.of_val obj in
  (* Reader pins the object. *)
  let g = Option.get (Smr.Ptb.try_acquire s ~pid:1 id) in
  Alcotest.(check bool) "confirmed" true (Smr.Ptb.confirm s ~pid:1 g id);
  let hits = ref 0 in
  Smr.Ptb.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth:0 (fun _ -> incr hits));
  (* Liberation hands the entry to the guard: the retirer's queue
     drops to zero, but nothing ran. *)
  Smr.Deferred.run_all ~pid:0 (Smr.Ptb.eject ~force:true s ~pid:0);
  Alcotest.(check int) "not run while pinned" 0 !hits;
  Alcotest.(check int) "buck left the retirer" 0 (Smr.Ptb.retired_count s ~pid:0);
  (* The releaser inherits the buck... *)
  Smr.Ptb.release s ~pid:1 g;
  Alcotest.(check int) "buck with the releaser" 1 (Smr.Ptb.retired_count s ~pid:1);
  (* ...and its next scan liberates it. *)
  Smr.Deferred.run_all ~pid:1 (Smr.Ptb.eject ~force:true s ~pid:1);
  Alcotest.(check int) "liberated by releaser" 1 !hits

let ptb_second_retire_stays_queued () =
  let s = Smr.Ptb.create ~cleanup_freq:1 ~max_threads:2 () in
  let id = Ident.of_val (mk_obj ()) in
  let g = Option.get (Smr.Ptb.try_acquire s ~pid:1 id) in
  ignore (Smr.Ptb.confirm s ~pid:1 g id);
  let hits = ref 0 in
  Smr.Ptb.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth:0 (fun _ -> incr hits));
  Smr.Ptb.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth:0 (fun _ -> incr hits));
  Smr.Deferred.run_all ~pid:0 (Smr.Ptb.eject ~force:true s ~pid:0);
  (* One hand-off slot per guard: the second entry must stay queued. *)
  Alcotest.(check int) "nothing ran" 0 !hits;
  Alcotest.(check int) "one entry kept" 1 (Smr.Ptb.retired_count s ~pid:0);
  Smr.Ptb.release s ~pid:1 g;
  Smr.Deferred.run_all ~pid:0 (Smr.Ptb.eject ~force:true s ~pid:0);
  Smr.Deferred.run_all ~pid:1 (Smr.Ptb.eject ~force:true s ~pid:1);
  Alcotest.(check int) "both ran after release" 2 !hits

(* ---------------- Hyaline ---------------- *)

let hyaline_active_counting () =
  let s = Smr.Hyaline.create ~max_threads:3 () in
  Alcotest.(check int) "idle" 0 (Smr.Hyaline.active_count s);
  Smr.Hyaline.begin_critical_section s ~pid:0;
  Smr.Hyaline.begin_critical_section s ~pid:1;
  Alcotest.(check int) "two active" 2 (Smr.Hyaline.active_count s);
  Smr.Hyaline.end_critical_section s ~pid:0;
  Alcotest.(check int) "one active" 1 (Smr.Hyaline.active_count s);
  Smr.Hyaline.end_critical_section s ~pid:1;
  Alcotest.(check int) "idle again" 0 (Smr.Hyaline.active_count s)

let hyaline_stamp_frees_on_last_leave () =
  let s = Smr.Hyaline.create ~max_threads:3 () in
  let hits = ref 0 in
  Smr.Hyaline.begin_critical_section s ~pid:0;
  Smr.Hyaline.begin_critical_section s ~pid:1;
  Smr.Hyaline.retire s ~pid:2
    (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:0 (fun _ -> incr hits));
  Alcotest.(check int) "not yet safe"  0
    (Smr.Deferred.length (Smr.Hyaline.eject s ~pid:2));
  Smr.Hyaline.end_critical_section s ~pid:0;
  Alcotest.(check int) "one reader still out"  0
    (Smr.Deferred.length (Smr.Hyaline.eject s ~pid:2));
  Smr.Hyaline.end_critical_section s ~pid:1;
  Smr.Deferred.run_all ~pid:2 (Smr.Hyaline.eject s ~pid:2);
  Alcotest.(check int) "freed when the last reader left" 1 !hits

let hyaline_retire_at_idle_immediate () =
  let s = Smr.Hyaline.create ~max_threads:1 () in
  let hits = ref 0 in
  Smr.Hyaline.retire s ~pid:0
    (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:0 (fun _ -> incr hits));
  Smr.Deferred.run_all ~pid:0 (Smr.Hyaline.eject s ~pid:0);
  Alcotest.(check int) "no reader -> immediately safe" 1 !hits

(* ---------------- Leaky ---------------- *)

let leaky_never_ejects () =
  let s = Smr.Leaky.create ~max_threads:1 () in
  let hits = ref 0 in
  for _ = 1 to 10 do
    Smr.Leaky.retire s ~pid:0
      (Smr.Deferred.of_fun ~id:(Ident.of_val (mk_obj ())) ~birth:0 (fun _ -> incr hits))
  done;
  Alcotest.(check int) "eject never returns" 0
    (Smr.Deferred.length (Smr.Leaky.eject ~force:true s ~pid:0));
  Alcotest.(check int) "pending" 10 (Smr.Leaky.retired_count s ~pid:0);
  Smr.Deferred.run_all ~pid:0 (Smr.Leaky.drain_all s);
  Alcotest.(check int) "drain_all releases" 10 !hits

(* ---------------- sticky counter internals ---------------- *)

let sticky_raw_bits () =
  let c = Sticky.Sticky_counter.create 3 in
  Alcotest.(check int) "raw equals logical when alive" 3 (Sticky.Sticky_counter.raw c);
  ignore (Sticky.Sticky_counter.decrement c);
  ignore (Sticky.Sticky_counter.decrement c);
  Alcotest.(check bool) "dec to zero" true (Sticky.Sticky_counter.decrement c);
  (* Once dead, the zero flag dominates whatever the low bits say. *)
  ignore (Sticky.Sticky_counter.increment_if_not_zero c);
  Alcotest.(check int) "still zero logically" 0 (Sticky.Sticky_counter.load c);
  Alcotest.(check bool) "zero flag set" true
    (Sticky.Sticky_counter.raw c land (1 lsl 61) <> 0)

let sticky_max_value () =
  Alcotest.(check bool) "max_value positive and huge" true
    (Sticky.Sticky_counter.max_value > 1 lsl 59);
  match Sticky.Sticky_counter.create (Sticky.Sticky_counter.max_value + 1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "scheme_details"
    [
      ( "ebr",
        [
          Alcotest.test_case "epoch advances on alloc" `Quick ebr_epoch_advances_on_alloc;
          Alcotest.test_case "stale announcement blocks" `Quick ebr_stale_announcement_blocks;
        ] );
      ( "ibr",
        [
          Alcotest.test_case "interval overlap logic" `Quick ibr_interval_blocks_only_overlaps;
          Alcotest.test_case "confirm extends interval" `Quick ibr_confirm_extends_interval;
        ] );
      ( "hazard_eras",
        [
          Alcotest.test_case "confirm tracks era" `Quick he_confirm_tracks_era;
          Alcotest.test_case "era protects interval" `Quick he_era_protects_interval;
        ] );
      ( "hp",
        [
          Alcotest.test_case "announced count" `Quick hp_announced_count;
          Alcotest.test_case "confirm re-announces" `Quick hp_confirm_reannounces;
        ] );
      ( "ptb",
        [
          Alcotest.test_case "handoff roundtrip" `Quick ptb_handoff_roundtrip;
          Alcotest.test_case "second retire queued" `Quick ptb_second_retire_stays_queued;
        ] );
      ( "hyaline",
        [
          Alcotest.test_case "active counting" `Quick hyaline_active_counting;
          Alcotest.test_case "stamp frees on last leave" `Quick hyaline_stamp_frees_on_last_leave;
          Alcotest.test_case "idle retire immediate" `Quick hyaline_retire_at_idle_immediate;
        ] );
      ("leaky", [ Alcotest.test_case "never ejects" `Quick leaky_never_ejects ]);
      ( "sticky internals",
        [
          Alcotest.test_case "raw bits" `Quick sticky_raw_bits;
          Alcotest.test_case "max value" `Quick sticky_max_value;
        ] );
    ]
