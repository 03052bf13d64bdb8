(* Schedule-exploration scenarios over the production cores: each
   builder returns a fresh [Sched.scenario] — simulated domains as
   cooperative fibers plus a final-state oracle — and creates an
   [Analysis.Race_monitor], which opts the scenario into interposition
   (every [Sched.Atomic] op of its fibers is a scheduling point) and
   checks each schedule's happens-before structure. Verdicts come from
   the monitor's lifetime rules and rc ledger, protocol invariants
   (death credits, dispose-once), [Simheap] (use-after-free /
   double-free / leak) and [Lincheck] (history linearizability). *)

module Mon = Analysis.Race_monitor
module Sticky = Sticky.Sticky_counter
module Cell = Cdrc.Rc_cell

(* ------------------------------------------------------------------ *)
(* Sticky counter (Fig 7) *)

(* The counter's traffic as rc cell #1 of the monitor's ledger. *)
let sticky_inc mon c =
  let ok = Sticky.increment_if_not_zero c in
  if ok then Mon.rc_incr mon ~ident:1;
  ok

let sticky_dec mon c =
  let death = Sticky.decrement c in
  Mon.rc_decr mon ~ident:1 ~death;
  death

let sticky_setup ~mutate ~fibers ~count =
  Sticky.mutation_drop_help_publish := mutate;
  let mon = Mon.create ~fibers () in
  Mon.rc_register mon ~ident:1 ~count;
  (mon, Sticky.create count)

(** [domains] fibers each own one unit of the count and run [ops]
    increment/decrement bursts before dropping their unit. Oracle:
    exactly one decrement overall takes the death credit, the counter
    reads 0 afterwards, and stays stuck. *)
let sticky_one_death ~domains ~ops () : Sched.scenario =
  let mon, c = sticky_setup ~mutate:false ~fibers:domains ~count:domains in
  let deaths = ref 0 in
  let fiber _i () =
    for _ = 1 to ops do
      if sticky_inc mon c then if sticky_dec mon c then incr deaths
    done;
    (* drop our owned unit *)
    if sticky_dec mon c then incr deaths
  in
  {
    Sched.fibers = Array.init domains (fun i -> fiber i);
    check =
      (fun () ->
        if !deaths <> 1 then
          failwith (Printf.sprintf "death credits: expected 1, got %d" !deaths);
        Mon.check mon;
        let v = Sticky.load c in
        if v <> 0 then failwith (Printf.sprintf "post-death load: expected 0, got %d" v);
        if Sticky.increment_if_not_zero c then failwith "increment revived a dead counter");
  }

(** One fiber loads [loads] times while another drops the only unit:
    the load either sees the old value or helps announce the death
    (the zero-flag/help-flag dance). Oracles: exactly one death
    credit, and the observed loads are monotone non-increasing in
    {0, 1}. With [mutate] the load "forgets" to publish the help flag
    — the decrement then loses its credit, which the explorer must
    detect. *)
let sticky_load_vs_decrement ?(mutate = false) ?(loads = 2) () : Sched.scenario =
  let mon, c = sticky_setup ~mutate ~fibers:2 ~count:1 in
  let deaths = ref 0 in
  let seen = ref [] in
  {
    Sched.fibers =
      [|
        (fun () ->
          for _ = 1 to loads do
            seen := Sticky.load c :: !seen
          done);
        (fun () -> if sticky_dec mon c then incr deaths);
      |];
    check =
      (fun () ->
        if !deaths <> 1 then
          failwith (Printf.sprintf "death credits: expected 1, got %d" !deaths);
        Mon.check mon;
        let rec monotone prev = function
          | [] -> true
          | v :: rest -> v >= 0 && v <= 1 && v <= prev && monotone v rest
        in
        if not (monotone max_int (List.rev !seen)) then
          failwith
            ("loads not monotone non-increasing in {0,1}: "
            ^ String.concat "," (List.map string_of_int (List.rev !seen))));
  }

(* ---- sticky counter vs. its sequential model, via Lincheck ---- *)

type sticky_op = Inc | Dec | Load

let pp_sticky_op ppf = function
  | Inc -> Format.fprintf ppf "inc"
  | Dec -> Format.fprintf ppf "dec"
  | Load -> Format.fprintf ppf "load"

(* Sequential specification: a non-negative count, stuck at zero.
   Results are encoded as ints: Inc -> 0/1 (failed/succeeded),
   Dec -> 0/1 (survived/took the death credit), Load -> the value. *)
let sticky_model count op =
  match op with
  | Inc -> if count > 0 then (count + 1, 1) else (count, 0)
  | Dec -> if count >= 1 then (count - 1, if count = 1 then 1 else 0) else (count, -1)
  | Load -> (count, count)

(** Run one scripted op sequence per fiber against a shared counter
    (each fiber starts owning one unit; a [Dec] is skipped unless the
    fiber owns a unit, honoring the API precondition; leftover units
    are dropped at the end), recording every operation with logical
    invocation/response stamps. Oracle: the recorded history is
    linearizable against the sequential model. *)
let sticky_lincheck ?(mutate = false) ~(seqs : sticky_op list array) () : Sched.scenario =
  let nfibers = Array.length seqs in
  let mon, c = sticky_setup ~mutate ~fibers:nfibers ~count:nfibers in
  let rec_ : (sticky_op, int) Lincheck.Recorder.t = Lincheck.Recorder.create () in
  (* Yield inside the recorded window so other fibers' steps land
     between a recorded op's invocation and response stamps — otherwise
     histories could never overlap. *)
  let recorded thread op f =
    Lincheck.Recorder.run rec_ ~thread op (fun () ->
        Sched.yield ();
        f ())
  in
  let dec i = ignore (recorded i Dec (fun () -> if sticky_dec mon c then 1 else 0)) in
  let fiber i () =
    let units = ref 1 in
    List.iter
      (fun op ->
        match op with
        | Inc -> if recorded i Inc (fun () -> if sticky_inc mon c then 1 else 0) = 1 then incr units
        | Dec ->
            if !units > 0 then begin
              decr units;
              dec i
            end
        | Load -> ignore (recorded i Load (fun () -> Sticky.load c)))
      seqs.(i);
    while !units > 0 do
      decr units;
      dec i
    done
  in
  {
    Sched.fibers = Array.init nfibers fiber;
    check =
      (fun () ->
        match
          Lincheck.check_or_explain ~model:sticky_model ~equal_res:( = )
            ~pp_op:pp_sticky_op
            ~pp_res:(fun ppf r -> Format.fprintf ppf "%d" r)
            ~init:nfibers (Lincheck.Recorder.history rec_)
        with
        | Ok () -> Mon.check mon
        | Error msg -> failwith msg);
  }

(* ------------------------------------------------------------------ *)
(* Acquire–retire over hazard pointers (Fig 2) *)

type slot_mutant = Skip_confirm | Drop_announce

(* The seeded slot bugs, as wrappers around the production scheme. *)
module Hp_skip_confirm = struct
  include Smr.Hp

  let confirm _ ~pid:_ _ _ = true
end

module Hp_drop_announce = struct
  include Smr.Hp

  let try_acquire t ~pid _ = Smr.Hp.try_acquire t ~pid Smr.Ident.null
  let confirm _ ~pid:_ _ _ = true
end

(* A reader protects and dereferences whatever [loc] holds, through the
   production [Acquire_retire] scope, while a reclaimer swings [loc]
   from node 1 to 2 to 3, retires 1 and 2 and ejects. The reader
   reports its guard only if a slot of the scheme really carries the
   node it got back — read with interposition off, so the check adds no
   scheduling point — and a dropped or stale announcement earns no
   phantom coverage; the slot release at
   scope exit → eject scan edge orders every clean deref before its
   free. *)
module Slots (S : Smr.Smr_intf.S with type t = Smr.Hp.t) = struct
  module Ar = Acquire_retire.Make (S)

  let scenario () : Sched.scenario =
    let mon = Mon.create ~fibers:2 () in
    let ar = Ar.create ~slots_per_thread:1 ~max_threads:2 () in
    let nodes =
      Array.init 3 (fun i ->
          Mon.register mon ~ident:(i + 1);
          Ar.alloc ar ~pid:1 (i + 1))
    in
    let loc = Sched.Atomic.make nodes.(0) in
    (* Node [i]'s monitor ident, found without reading the node: a
       mutant's reader may hold a freed one. *)
    let id_of m =
      let rec find i = if nodes.(i) == m then i + 1 else find (i + 1) in
      find 0
    in
    let retire i =
      let m = nodes.(i) in
      Mon.retire mon ~ident:(i + 1);
      Ar.retire ar ~pid:1
        (Smr.Deferred.of_fun ~id:(Ar.ident m) ~birth:(Ar.birth_tag m) (fun _ ->
             Mon.free mon ~ident:(i + 1);
             Ar.discard m))
    in
    let eject () = Ar.eject ~force:true ar ~pid:1 in
    let read s =
      let m, g = Ar.protect s ~ident:Ar.ident loc in
      if not (Ar.guarded g) then failwith "out of announcement slots";
      let id = id_of m in
      if Sched.Atomic.plain (fun () -> Smr.Hp.is_announced ar.Ar.smr (Ar.ident m)) then
        Mon.acquire mon ~ident:id;
      Mon.deref mon ~ident:id;
      ignore (Ar.get s g m);
      Mon.release mon ~ident:id
    in
    {
      Sched.fibers =
        [|
          (fun () -> Ar.scope ar ~pid:0 { Ar.f = read });
          (fun () ->
            Sched.Atomic.set loc nodes.(1);
            retire 0;
            Sched.Atomic.set loc nodes.(2);
            retire 1;
            eject ());
        |];
      check =
        (fun () ->
          (* The reader has released: a final eject must reclaim both
             retired nodes. *)
          eject ();
          Mon.check mon;
          let live = Simheap.live (Ar.heap ar) in
          if live <> 1 then
            failwith (Printf.sprintf "post-run live blocks: expected 1 (node 3), got %d" live));
    }
end

module Slots_hp = Slots (Smr.Hp)
module Slots_skip_confirm = Slots (Hp_skip_confirm)
module Slots_drop_announce = Slots (Hp_drop_announce)

let slots ?mutant () =
  match mutant with
  | None -> Slots_hp.scenario ()
  | Some Skip_confirm -> Slots_skip_confirm.scenario ()
  | Some Drop_announce -> Slots_drop_announce.scenario ()

(* ------------------------------------------------------------------ *)
(* Ownership hand-off (the *_manual transfer idiom) *)

(** Ownership transfer without guards, ordered purely by
    happens-before — the idiom of the [*_manual] structures, where a
    CAS unlink makes the unlinker the node's sole owner. The producer
    unlinks node 1 from [shared] and hands it to the consumer through
    an atomic [mailbox]; the consumer dereferences it and acknowledges
    through [ack]; only after observing the ack does the producer
    retire and free. Both sides poll boundedly (a fixed handful of
    attempts), so every schedule terminates; unconsumed or unfreed
    state is reclaimed by the oracle, whose events are ordered after
    all fibers by construction.

    With [mutate] the producer retires {e before} the hand-off — and
    frees immediately, never waiting for the ack: any schedule in which
    the consumer receives the node trips the monitor, either as a
    use-after-free deref (rule a) or as a deref not ordered before the
    free (rule b). *)
let handoff ?(mutate = false) () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  let heap = Simheap.create ~name:"handoff" () in
  let b1 = Simheap.alloc heap in
  Mon.register mon ~ident:1;
  let shared = Sched.Atomic.make 1 in
  let mailbox = Sched.Atomic.make 0 in
  let ack = Sched.Atomic.make 0 in
  let free_node () =
    Mon.free mon ~ident:1;
    Simheap.free b1
  in
  let producer () =
    let v = Sched.Atomic.exchange shared 0 in
    if v <> 0 then
      if mutate then begin
        (* BUG under test: retire + free reordered before the hand-off. *)
        Mon.retire mon ~ident:v;
        free_node ();
        Sched.Atomic.set mailbox v
      end
      else begin
        Sched.Atomic.set mailbox v;
        let rec poll k =
          if k = 0 then false else if Sched.Atomic.get ack = 1 then true else poll (k - 1)
        in
        if poll 3 then begin
          Mon.retire mon ~ident:v;
          free_node ()
        end
      end
  in
  let consumer () =
    let rec take k =
      if k = 0 then 0
      else
        let v = Sched.Atomic.exchange mailbox 0 in
        if v <> 0 then v else take (k - 1)
    in
    match take 3 with
    | 0 -> ()
    | v ->
        Mon.deref mon ~ident:v;
        Simheap.check_live b1;
        Sched.Atomic.set ack 1
  in
  {
    Sched.fibers = [| producer; consumer |];
    check =
      (fun () ->
        Mon.check mon;
        (* Quiesce: whatever survived the bounded polls is reclaimed
           here, in the oracle context. *)
        if Simheap.is_live b1 then free_node ();
        if Simheap.live heap <> 0 then
          failwith (Printf.sprintf "leak: %d block(s) never freed" (Simheap.live heap)));
  }

(* ------------------------------------------------------------------ *)
(* CDRC weak-pointer upgrade (Figs 8–9) *)

(** The owner of the last strong reference races a weak-pointer
    upgrade: drop-strong → dispose → weak-decrement → free on one
    side, increment-if-not-zero → deref on the other, with the strong
    counter's traffic fed to the monitor's rc ledger. The block's
    atomics are a control block's, driven by [Rc_cell]'s steps as
    [Cdrc] drives them. Oracles: a successful upgrade finds the block
    not disposed and live; disposal happens exactly once; the block is freed
    exactly once and nothing leaks ([Simheap]); both counters end at
    zero; upgrades and drops balance exactly. With [mutate] the first
    fiber drops its strong reference {e twice} — the classic
    double-decrement — and the ledger must flag it. *)
let weak_upgrade ?(mutate = false) () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  let heap = Simheap.create ~name:"weak-upgrade" () in
  let block = Simheap.alloc heap in
  let strong = Cell.one () and weak = Cell.one () in
  Mon.rc_register mon ~ident:1 ~count:1;
  (* the weak-holder fiber's own weak unit, on top of the strong
     side's implicit one (Fig 8: weak = #weak + (1 if strong > 0)) *)
  if not (Cell.weak_increment_if_not_zero weak) then failwith "setup weak_increment";
  let drop_strong () =
    let death = Cell.strong_decrement strong in
    Mon.rc_decr mon ~ident:1 ~death;
    if death then begin
      if not (Cell.dispose_once block) then failwith "double dispose";
      if Cell.weak_decrement weak then Simheap.free block
    end
  in
  let drop_weak () = if Cell.weak_decrement weak then Simheap.free block in
  {
    Sched.fibers =
      [|
        (fun () ->
          drop_strong ();
          (* BUG under test: a second drop of a reference this fiber no
             longer owns. *)
          if mutate then drop_strong ());
        (fun () ->
          if Cell.try_upgrade strong then begin
            Mon.rc_incr mon ~ident:1;
            if Cell.disposed block then failwith "successful upgrade observed a disposed value";
            drop_strong ()
          end;
          drop_weak ());
      |];
    check =
      (fun () ->
        Mon.check mon;
        if Simheap.live heap <> 0 then
          failwith (Printf.sprintf "leak: %d control block(s) never freed" (Simheap.live heap));
        let s = Cell.count strong and w = Cell.count weak in
        if s <> 0 || w <> 0 then
          failwith (Printf.sprintf "final counts: strong=%d weak=%d (expected 0/0)" s w));
  }

(* ------------------------------------------------------------------ *)
(* Harness self-check *)

(** A deliberately racy read-modify-write counter: two fibers each do
    [get; set (v+1)]. The lost-update schedule exists, so the explorer
    MUST find it — if this scenario ever passes exhaustive
    exploration, the harness itself is broken. *)
let racy_counter () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  let c = Sched.Atomic.make 0 in
  let bump () =
    let v = Sched.Atomic.get c in
    Sched.Atomic.set c (v + 1)
  in
  {
    Sched.fibers = [| bump; bump |];
    check =
      (fun () ->
        Mon.check mon;
        let v = Sched.Atomic.get c in
        if v <> 2 then failwith (Printf.sprintf "lost update: counter = %d, expected 2" v));
  }
