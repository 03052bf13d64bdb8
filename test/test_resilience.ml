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

let chaos_spec =
  {
    Workload.Chaos_runner.default_spec with
    Workload.Chaos_runner.ch_steps = 1500;
    ch_victims = 2;
  }

let chaos_replays_bit_identically () =
  let scheme =
    match Workload.Chaos_runner.find_schemes [ "EBR" ] with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "EBR scheme not found"
  in
  let a = Workload.Chaos_runner.run_campaign ~spec:chaos_spec scheme in
  let b = Workload.Chaos_runner.run_campaign ~spec:chaos_spec scheme in
  Alcotest.(check bool) "campaign passed" true a.Workload.Chaos_runner.c_ok;
  Alcotest.(check int) "same digest" a.c_digest b.c_digest;
  Alcotest.(check int) "same ok count" a.c_ok_first b.c_ok_first;
  Alcotest.(check int) "same trips" a.c_trips b.c_trips;
  Alcotest.(check int) "same aborted" a.c_aborted b.c_aborted;
  Alcotest.(check (list int)) "same recoveries" a.c_recoveries b.c_recoveries;
  Alcotest.(check int) "same peak backlog" a.c_peak_backlog b.c_peak_backlog

let chaos_seed_changes_schedule () =
  let scheme =
    match Workload.Chaos_runner.find_schemes [ "EBR" ] with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "EBR scheme not found"
  in
  let a = Workload.Chaos_runner.run_campaign ~spec:chaos_spec scheme in
  let b =
    Workload.Chaos_runner.run_campaign
      ~spec:{ chaos_spec with Workload.Chaos_runner.ch_seed = 43 }
      scheme
  in
  Alcotest.(check bool) "different digest" true (a.c_digest <> b.c_digest)

(* ------------------- outcome separation --------------------------- *)

(* Gray-slow victims keep serving but every try against them costs more
   than the per-try budget, so a tight deadline forces timeouts and
   fail-over retries. The runner must report those as request outcomes
   while c_aborted — requests lost to a worker dying mid-flight — stays
   zero, every request lands in exactly one outcome, and the run still
   validates with nothing leaked. *)
let request_outcomes_are_not_failures () =
  let scheme =
    match Workload.Chaos_runner.find_schemes [ "EBR" ] with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "EBR scheme not found"
  in
  let spec =
    {
      chaos_spec with
      Workload.Chaos_runner.ch_kind = Fault.Chaos.Gray_slow;
      ch_deadline = 3;
      ch_retries = 2;
    }
  in
  let r = Workload.Chaos_runner.run_campaign ~spec scheme in
  Alcotest.(check int) "no worker deaths" 0 r.Workload.Chaos_runner.c_aborted;
  Alcotest.(check bool) "deadline misses were accounted" true
    (r.c_timed_out + r.c_retried_ok > 0);
  Alcotest.(check bool) "retries were issued" true (r.c_retries > 0);
  Alcotest.(check int) "every request has one outcome" r.c_steps
    (r.c_ok_first + r.c_retried_ok + r.c_timed_out + r.c_shed + r.c_failed);
  List.iter
    (fun name ->
      match List.find_opt (fun o -> o.Fault.Chaos.o_name = name) r.c_oracles with
      | Some o -> Alcotest.(check bool) (name ^ ": " ^ o.o_detail) true o.o_ok
      | None -> Alcotest.failf "oracle %s missing" name)
    [ "uaf-free"; "leak-free"; "accounting" ];
  Alcotest.(check int) "no leaks" 0 r.c_leaked

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
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "request outcomes are not worker failures" `Slow
            request_outcomes_are_not_failures;
        ] );
    ]
