(* Resilience layer (DESIGN.md §13): qcheck properties over the
   circuit breaker's pure core, bit-identical chaos-campaign replay,
   and the request-outcome / worker-failure separation in the chaos
   runner's request layer.

   The breaker properties quantify over *reachable* states — whatever a
   random input sequence produces from [init] — rather than raw state
   values, so they hold for the machine as driven, not just for states
   the machine can never enter. *)

module Q = QCheck2
module B = Workload.Breaker

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------- generators ----------------------------------- *)

(* Small-threshold configs keep the walks short while exercising every
   transition; fields respect the invariants [B.create] validates by
   construction. *)
let config_gen =
  Q.Gen.(
    let* trip_failures = int_range 1 6 in
    let* backlog_trip = int_range 8 64 in
    let* shed_writes_at = int_range 1 backlog_trip in
    let* shed_writes_clear = int_range 0 shed_writes_at in
    let* p99_trip = int_range 2 32 in
    let* open_ticks = int_range 1 5 in
    let* probe_quota = int_range 1 5 in
    let* close_after = int_range 1 probe_quota in
    return
      {
        B.trip_failures;
        backlog_trip;
        shed_writes_at;
        shed_writes_clear;
        p99_trip;
        open_ticks;
        probe_quota;
        close_after;
      })

type op = Admit of B.kind | Report of bool | Tick of int * int option

let op_gen cfg =
  Q.Gen.(
    let backlog = int_range 0 (2 * cfg.B.backlog_trip) in
    let p99 = opt (int_range 0 (2 * cfg.B.p99_trip)) in
    oneof
      [
        map (fun w -> Admit (if w then B.Write else B.Read)) bool;
        map (fun ok -> Report ok) bool;
        map2 (fun b p -> Tick (b, p)) backlog p99;
      ])

let walk_gen =
  Q.Gen.(
    let* cfg = config_gen in
    let* ops = list_size (int_range 0 60) (op_gen cfg) in
    return (cfg, ops))

let apply cfg st = function
  | Admit k -> fst (B.admit cfg st k)
  | Report ok -> fst (B.report cfg st ~ok)
  | Tick (b, p) -> fst (B.tick cfg st ~backlog:b ~p99:p)

let reach cfg ops = List.fold_left (apply cfg) B.init ops
let is_closed = function B.Closed _ -> true | _ -> false

(* ------------------- properties ----------------------------------- *)

(* Liveness: from any reachable state, healthy signals alone close the
   breaker — Open drains to Half_open in <= open_ticks ticks and an
   idle Half_open quiet-closes in open_ticks more, so 2 * open_ticks
   healthy ticks suffice with no request traffic at all. A breaker
   that can wedge open after the fault clears fails this. *)
let prop_never_wedges_open =
  Q.Test.make ~name:"breaker: healthy ticks always close it" ~count:500 walk_gen
    (fun (cfg, ops) ->
      let st = ref (reach cfg ops) in
      for _ = 1 to 2 * cfg.B.open_ticks do
        st := fst (B.tick cfg !st ~backlog:0 ~p99:None)
      done;
      is_closed !st)

(* Half_open admission budget: exactly [probe_quota] probes are
   admitted, then everything sheds until a report or tick moves the
   state. *)
let prop_half_open_quota =
  Q.Test.make ~name:"breaker: half-open admits exactly probe_quota" ~count:500
    Q.Gen.(pair config_gen bool)
    (fun (cfg, write) ->
      let kind = if write then B.Write else B.Read in
      (* Drive init -> Open (backlog trip) -> Half_open (drain). *)
      let st = ref (fst (B.tick cfg B.init ~backlog:cfg.B.backlog_trip ~p99:None)) in
      for _ = 1 to cfg.B.open_ticks do
        st := fst (B.tick cfg !st ~backlog:0 ~p99:None)
      done;
      (match !st with B.Half_open _ -> () | _ -> Q.Test.fail_report "not half-open");
      let admitted = ref 0 in
      for _ = 1 to cfg.B.probe_quota + 3 do
        let st', d = B.admit cfg !st kind in
        st := st';
        match d with
        | B.Admit_probe -> incr admitted
        | B.Shed -> ()
        | B.Admit | B.Shed_write -> Q.Test.fail_report "non-probe decision half-open"
      done;
      !admitted = cfg.B.probe_quota)

(* Replay: the core is pure, so the full (state, output) trajectory of
   any input sequence is bit-identical across runs — the property CI
   leans on when a failed campaign is re-run from its printed seed. *)
let prop_replays_bit_identically =
  Q.Test.make ~name:"breaker: trajectories replay bit-identically" ~count:300 walk_gen
    (fun (cfg, ops) ->
      let trace () =
        List.fold_left
          (fun (st, acc) op ->
            let st', out =
              match op with
              | Admit k ->
                  let st', d = B.admit cfg st k in
                  (st', B.state_name st' ^ "/admit")
                  |> fun (s, tag) ->
                  ( s,
                    tag
                    ^
                    match d with
                    | B.Admit -> "+a"
                    | B.Admit_probe -> "+p"
                    | B.Shed -> "+s"
                    | B.Shed_write -> "+w" )
              | Report ok ->
                  let st', tr = B.report cfg st ~ok in
                  (st', B.state_name st' ^ if tr = None then "" else "/tr")
              | Tick (b, p) ->
                  let st', tr = B.tick cfg st ~backlog:b ~p99:p in
                  (st', B.state_name st' ^ if tr = None then "" else "/tr")
            in
            (st', out :: acc))
          (B.init, []) ops
        |> snd
      in
      trace () = trace ())

(* ------------------- chaos-campaign replay ------------------------ *)

module CR = Workload.Chaos_runner
module T = Workload.Table

let chaos_spec = { CR.default_spec with CR.ch_steps = 1500; ch_victims = 2 }

(* The campaign's cell over one scheme. *)
let campaign ?(spec = chaos_spec) scheme =
  let row = Result.get_ok (CR.row spec) in
  match T.sweep row (Result.get_ok (T.select row [ scheme ])) with
  | [ o ] -> o
  | os -> Alcotest.failf "%d cells, expected 1" (List.length os)

let col (o : T.outcome) name =
  match List.assoc_opt name o.columns with
  | Some v -> v
  | None -> Alcotest.failf "%s: no column %s" o.key name

let chaos_replays_bit_identically () =
  let a = campaign "EBR" in
  let b = campaign "EBR" in
  Alcotest.(check (list (pair string int))) "campaign passed" [] a.errors;
  Alcotest.(check (list (pair string int))) "same columns" a.columns b.columns;
  (* The recovery columns carry the drills' latencies. *)
  Alcotest.(check bool) "a drill recovered" true (col a "recoveries" > 0);
  Alcotest.(check bool) "same fault trace" true (a.faults = b.faults);
  Alcotest.(check (list string))
    "column names"
    [
      "ok"; "retried_ok"; "timeout"; "shed"; "failed"; "retries"; "aborted"; "trips"; "drills";
      "recoveries"; "recovery_steps"; "backlog_peak"; "backlog_end"; "digest";
    ]
    (List.map fst a.columns);
  Alcotest.(check int) "same leaked" a.cell.c_leaked b.cell.c_leaked

let chaos_seed_changes_schedule () =
  let a = campaign "EBR" in
  let b = campaign ~spec:{ chaos_spec with CR.ch_seed = 43 } "EBR" in
  Alcotest.(check bool) "different digest" true (col a "digest" <> col b "digest")

(* ------------------- pinned campaign matrix ----------------------- *)

(* Every campaign kind over every scheme at seed 42 and the default
   spec, pinned: (digest, peak shard backlog, end shard backlog, blocks
   leaked after teardown, verdict). The campaigns are deterministic, so
   any change to the request layer, the fault wrapper or the runner
   that moves one number shows here. *)
let pinned_campaigns =
  [
    ("stall-storm", "EBR", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("stall-storm", "IBR", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("stall-storm", "HP", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("stall-storm", "HE", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("stall-storm", "Hyaline", (0x2698f2a6feeac2cc, 3, 1, 0, true));
    ("stall-storm", "PTB", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("stall-storm", "None", (0x2b014bc329de4ab4, 133, 133, 0, true));
    ("rolling-crash", "EBR", (0x2a40623dc9051749, 165, 165, 2, true));
    ("rolling-crash", "IBR", (0x2a40623dc9051749, 165, 165, 2, true));
    ("rolling-crash", "HP", (0x143550e02b6a544, 134, 134, 2, true));
    ("rolling-crash", "HE", (0x143550e02b6a544, 134, 134, 2, true));
    ("rolling-crash", "Hyaline", (0xdb8f8f11c2940a3, 3, 1, 4, true));
    ("rolling-crash", "PTB", (0x143550e02b6a544, 134, 134, 2, true));
    ("rolling-crash", "None", (0x143550e02b6a544, 134, 134, 2, true));
    ("crash-eject", "EBR", (0x26637556c21f2b3f, 120, 106, 3, true));
    ("crash-eject", "IBR", (0x26637556c21f2b3f, 120, 106, 3, true));
    ("crash-eject", "HP", (0x270b5becee740b00, 134, 134, 3, true));
    ("crash-eject", "HE", (0x270b5becee740b00, 134, 134, 3, true));
    ("crash-eject", "Hyaline", (0x26637556c21f2b3f, 3, 1, 3, true));
    ("crash-eject", "PTB", (0x270b5becee740b00, 134, 134, 3, true));
    ("crash-eject", "None", (0x270b5becee740b00, 134, 134, 3, true));
    ("gray-slow", "EBR", (0x30c83403957cb26d, 132, 132, 0, true));
    ("gray-slow", "IBR", (0x30c83403957cb26d, 132, 132, 0, true));
    ("gray-slow", "HP", (0x30c83403957cb26d, 132, 132, 0, true));
    ("gray-slow", "HE", (0x30c83403957cb26d, 132, 132, 0, true));
    ("gray-slow", "Hyaline", (0x22cc76c423aeaec1, 3, 1, 0, true));
    ("gray-slow", "PTB", (0x30c83403957cb26d, 132, 132, 0, true));
    ("gray-slow", "None", (0x30c83403957cb26d, 132, 132, 0, true));
    ("mixed", "EBR", (0x3cb0ddb56d0cd4da, 133, 133, 1, true));
    ("mixed", "IBR", (0x3cb0ddb56d0cd4da, 133, 133, 1, true));
    ("mixed", "HP", (0xb23e192ee301afe, 133, 133, 1, true));
    ("mixed", "HE", (0xb23e192ee301afe, 133, 133, 1, true));
    ("mixed", "Hyaline", (0x2b50081cc9370428, 3, 1, 7, true));
    ("mixed", "PTB", (0xb23e192ee301afe, 133, 133, 1, true));
    ("mixed", "None", (0xb23e192ee301afe, 133, 133, 1, true));
  ]

let chaos_matrix_pinned () =
  let show (d, p, e, l, ok) =
    Printf.sprintf "digest=%x peak=%d end=%d leaked=%d pass=%b" d p e l ok
  in
  List.iter
    (fun (kind, scheme, expected) ->
      let kind = Result.get_ok (Fault.Chaos.kind_of_string kind) in
      let o = campaign ~spec:{ CR.default_spec with CR.ch_kind = kind } scheme in
      Alcotest.(check string)
        (o.key ^ " pinned") (show expected)
        (show
           ( col o "digest",
             col o "backlog_peak",
             col o "backlog_end",
             o.cell.c_leaked,
             o.errors = [] )))
    pinned_campaigns

(* ------------------- outcome separation --------------------------- *)

(* Gray-slow victims keep serving but every try against them costs more
   than the per-try budget, so a tight deadline forces timeouts and
   fail-over retries. The kernel must report those as request outcomes
   while [aborted] — requests lost to a worker dying mid-flight — stays
   zero, every request lands in exactly one outcome, and the cell still
   passes with nothing leaked. *)
let request_outcomes_are_not_failures () =
  let spec =
    { chaos_spec with CR.ch_kind = Fault.Chaos.Gray_slow; ch_deadline = 3; ch_retries = 2 }
  in
  let o = campaign ~spec "EBR" in
  let c = col o in
  Alcotest.(check int) "no worker deaths" 0 (c "aborted");
  Alcotest.(check bool) "deadline misses were accounted" true (c "timeout" + c "retried_ok" > 0);
  Alcotest.(check bool) "retries were issued" true (c "retries" > 0);
  Alcotest.(check int) "every request has one outcome" o.cell.c_ops
    (c "ok" + c "retried_ok" + c "timeout" + c "shed" + c "failed");
  Alcotest.(check (list (pair string int))) "cell passed" [] o.errors;
  Alcotest.(check int) "no leaks" 0 o.cell.c_leaked

let () =
  Alcotest.run "resilience"
    [
      ( "breaker",
        [
          to_alcotest prop_never_wedges_open;
          to_alcotest prop_half_open_quota;
          to_alcotest prop_replays_bit_identically;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "campaign replays bit-identically" `Slow
            chaos_replays_bit_identically;
          Alcotest.test_case "seed changes the schedule" `Slow
            chaos_seed_changes_schedule;
          Alcotest.test_case "35 campaign results pinned" `Slow chaos_matrix_pinned;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "request outcomes are not worker failures" `Slow
            request_outcomes_are_not_failures;
        ] );
    ]
