(** Deterministic schedule exploration for the lock-free cores
    (dscheck-style; see DESIGN.md §8).

    Every protocol atomic of the reclamation stack — the sticky counter
    (Fig 7), the schemes' announcement slots behind acquire–retire
    (Fig 2), the CDRC control block (Figs 8–9) — goes through {!Atomic}.
    It is [Stdlib.Atomic] plus one test of a mode word per operation:
    plain in production, and switched on only by a controller running
    an opted-in scenario's fiber (every op then yields to the
    controller and is reported to the scenario's tracer) or by a
    counting window (every op is tallied by kind). The controller runs
    each "domain" as a cooperative fiber on a single OS thread and
    decides, at every atomic step, which fiber runs next — so a bad
    interleaving of the production code is a *schedule we can
    enumerate and replay*, not a lottery ticket.

    Three explorers drive the controller:

    - {!explore_dfs}: exhaustive depth-first enumeration of schedules,
      optionally preemption-bounded (CHESS-style): a context switch
      away from a still-runnable fiber costs one preemption, and
      schedules over the budget are pruned. Tiny configs (2 domains ×
      a few ops) are feasible unbounded; the preemption bound keeps
      larger ones exhaustive-in-practice, since reclamation races need
      only 1–3 preemptions.
    - {!explore_pct}: PCT-style randomized priority schedules
      (Burckhardt et al.): random fiber priorities plus [depth - 1]
      random priority-change points per run.
    - {!explore_random}: uniform random walk over runnable fibers.

    Every failure carries the executed schedule and a replay
    recipe; {!replay} re-runs a single schedule deterministically. *)

type _ Effect.t += Yield : unit Effect.t

(* Depth of active controllers on this domain. Exploration is strictly
   single-domain (that is the point), so a plain ref suffices; outside
   a controller an explicit [yield] is a no-op. *)
let controller_depth = ref 0

let yield () = if !controller_depth > 0 then Effect.perform Yield

(* ------------------------------------------------------------------ *)
(* Operation tracing (the sanitizer's event feed, DESIGN.md §14) *)

type op_kind = Op_get | Op_set | Op_exchange | Op_cas of bool | Op_faa

type op_event = {
  op_fiber : int;  (** executing fiber *)
  op_step : int;  (** controller step at which the op executed *)
  op_loc : int;  (** the cell's id within the run *)
  op_kind : op_kind;
}

(* The tracer of the schedule being built; installing one is what opts
   a scenario into interposition. [run_schedule] clears it on exit, so
   a stale tracer can never leak into an unrelated run. *)
let tracer : (op_event -> unit) option ref = ref None
let interpose f = tracer := Some f

(* Maintained by [run_schedule]; [-1] outside fiber context (setup code
   in the scenario builder, and the final [check] oracle). *)
let running_fiber = ref (-1)
let running_step = ref 0
let current_fiber () = !running_fiber
let current_step () = !running_step

(* ------------------------------------------------------------------ *)
(* The atomic module *)

module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  type counts = {
    gets : int;
    sets : int;
    exchanges : int;
    cas : int;  (** CAS attempts, successful or not *)
    cas_failures : int;  (** the failed subset of [cas] *)
    faa : int;
  }

  type mode = Plain | Interposing | Counting

  (* The mode word. Exploration and counting windows are
     single-domain, so a plain ref suffices. *)
  let mode = ref Plain
  let interposed () = !mode = Interposing

  (* Cell ids for the tracer, assigned per run in order of first use and
     keyed on physical identity (stable under the moving GC, like
     [Smr.Ident]); the scan is linear because a scenario touches a
     handful of cells. *)
  let locs : (Obj.t * int) list ref = ref []

  let loc_of r =
    let key = Obj.repr r in
    match List.find_opt (fun (c, _) -> c == key) !locs with
    | Some (_, id) -> id
    | None ->
        let id = List.length !locs + 1 in
        locs := (key, id) :: !locs;
        id

  let n_gets = ref 0
  let n_sets = ref 0
  let n_exchanges = ref 0
  let n_cas = ref 0
  let n_cas_failures = ref 0
  let n_faa = ref 0

  let reset () =
    List.iter (fun r -> r := 0) [ n_gets; n_sets; n_exchanges; n_cas; n_cas_failures; n_faa ]

  let snapshot () =
    {
      gets = !n_gets;
      sets = !n_sets;
      exchanges = !n_exchanges;
      cas = !n_cas;
      cas_failures = !n_cas_failures;
      faa = !n_faa;
    }

  (* Failed CAS attempts are already inside [cas]. *)
  let total c = c.gets + c.sets + c.exchanges + c.cas + c.faa

  let window m f =
    let saved = !mode in
    mode := m;
    Fun.protect ~finally:(fun () -> mode := saved) f

  let counting f = window Counting f
  let plain f = window Plain f

  (* The slow paths: [enter] is the interposed op's scheduling point;
     [leave] reports the op that just took effect. *)
  let enter () = if interposed () then yield ()

  let leave r kind =
    if !mode = Counting then
      match kind with
      | Op_get -> incr n_gets
      | Op_set -> incr n_sets
      | Op_exchange -> incr n_exchanges
      | Op_cas ok ->
          incr n_cas;
          if not ok then incr n_cas_failures
      | Op_faa -> incr n_faa
    else
      match !tracer with
      | Some f ->
          f { op_fiber = !running_fiber; op_step = !running_step; op_loc = loc_of r; op_kind = kind }
      | None -> ()

  let[@inline never] get_slow r =
    enter ();
    let v = Stdlib.Atomic.get r in
    leave r Op_get;
    v

  let[@inline never] set_slow r v =
    enter ();
    Stdlib.Atomic.set r v;
    leave r Op_set

  let[@inline never] exchange_slow r v =
    enter ();
    let old = Stdlib.Atomic.exchange r v in
    leave r Op_exchange;
    old

  let[@inline never] compare_and_set_slow r old nu =
    enter ();
    let ok = Stdlib.Atomic.compare_and_set r old nu in
    leave r (Op_cas ok);
    ok

  let[@inline never] fetch_and_add_slow r n =
    enter ();
    let old = Stdlib.Atomic.fetch_and_add r n in
    leave r Op_faa;
    old

  (* The fast paths: one test of the mode word, inlined at every call
     site (this compiler has no flambda; [@inline] still applies). *)
  let make = Stdlib.Atomic.make
  let[@inline] get r = if !mode = Plain then Stdlib.Atomic.get r else get_slow r
  let[@inline] set r v = if !mode = Plain then Stdlib.Atomic.set r v else set_slow r v

  let[@inline] exchange r v =
    if !mode = Plain then Stdlib.Atomic.exchange r v else exchange_slow r v

  let[@inline] compare_and_set r old nu =
    if !mode = Plain then Stdlib.Atomic.compare_and_set r old nu
    else compare_and_set_slow r old nu

  let[@inline] fetch_and_add r n =
    if !mode = Plain then Stdlib.Atomic.fetch_and_add r n else fetch_and_add_slow r n
end

(* ------------------------------------------------------------------ *)
(* Scenarios and single-schedule execution *)

type scenario = {
  fibers : (unit -> unit) array;  (** one function per simulated domain *)
  check : unit -> unit;  (** final-state oracle; raise to report a violation *)
}

exception Step_bound_exceeded of int
exception Abort  (** used to discontinue leftover fibers after a violation *)

type fiber_state =
  | Pending of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

(* Execute one schedule. [choose ~runnable ~last ~step] picks the next
   fiber among [runnable] (ascending indices). Returns the executed
   choice list and, per step, the runnable set (for DFS backtracking) —
   or the offending exception and the choices made so far. *)
let run_schedule ?(max_steps = 10_000) ~choose (s : scenario) :
    (int list * int list list, exn * int list) result =
  let n = Array.length s.fibers in
  let state = Array.map (fun f -> Pending f) s.fibers in
  let interposed_run = Option.is_some !tracer in
  let trace = ref [] and alts = ref [] in
  let step = ref 0 in
  let last = ref (-1) in
  let runnable () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match state.(i) with Finished -> () | _ -> acc := i :: !acc
    done;
    !acc
  in
  let run_fiber i =
    let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
      function
      | Yield -> Some (fun k -> state.(i) <- Suspended k)
      | _ -> None
    in
    let handler =
      { Effect.Deep.retc = (fun () -> state.(i) <- Finished); exnc = raise; effc }
    in
    if interposed_run then Atomic.mode := Atomic.Interposing;
    match state.(i) with
    | Pending f -> Effect.Deep.match_with f () handler
    | Suspended k -> Effect.Deep.continue k ()
    | Finished -> invalid_arg "Sched: scheduled a finished fiber"
  in
  (* Discontinue leftover fibers so their finalizers (a scope's close
     releasing its slots, say) run to completion — with interposition
     off, so their atomics cannot yield. [Abort] coming back is the
     unwinding we asked for; any other exception is a finalizer
     failure, reported unless [failure] already holds one. *)
  let cleanup failure =
    let failure = ref failure in
    Array.iteri
      (fun i st ->
        match st with
        | Suspended k -> (
            state.(i) <- Finished;
            match Effect.Deep.discontinue k Abort with
            | () | (exception Abort) -> ()
            | exception e -> if Option.is_none !failure then failure := Some e)
        | Pending _ | Finished -> ())
      state;
    !failure
  in
  let fail e = Error (Option.get (cleanup (Some e)), List.rev !trace) in
  incr controller_depth;
  Fun.protect
    ~finally:(fun () ->
      decr controller_depth;
      Atomic.mode := Atomic.Plain;
      Atomic.locs := [];
      running_fiber := -1;
      tracer := None)
    (fun () ->
      (* The oracle runs after every fiber has finished, outside fiber
         context: its atomics are plain, and an explicit [yield] inside
         it must not suspend (there is no handler on this stack), which
         masking the depth ensures. *)
      let run_check () =
        let saved = !controller_depth in
        controller_depth := 0;
        running_fiber := -1;
        running_step := !step;
        Fun.protect ~finally:(fun () -> controller_depth := saved) s.check
      in
      let rec loop () =
        match runnable () with
        | [] -> (
            match run_check () with
            | () -> Ok (List.rev !trace, List.rev !alts)
            | exception e -> Error (e, List.rev !trace))
        | rs -> (
            if !step >= max_steps then fail (Step_bound_exceeded max_steps)
            else begin
              let i = choose ~runnable:rs ~last:!last ~step:!step in
              if not (List.mem i rs) then
                invalid_arg
                  (Printf.sprintf "Sched: schedule chose fiber %d, not runnable at step %d"
                     i !step);
              trace := i :: !trace;
              alts := rs :: !alts;
              incr step;
              last := i;
              running_fiber := i;
              running_step := !step - 1;
              match
                Fun.protect
                  ~finally:(fun () ->
                    Atomic.mode := Atomic.Plain;
                    running_fiber := -1)
                  (fun () -> run_fiber i)
              with
              | () -> loop ()
              | exception e ->
                  state.(i) <- Finished;
                  fail e
            end)
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Results and replay *)

type failure = {
  f_trace : int list;  (** executed schedule of the failing run *)
  f_message : string;  (** rendering of the violation *)
  f_replay : string;  (** how to reproduce: trace or seed recipe *)
  f_schedules : int;  (** schedules executed before the failure *)
}

type result =
  | Pass of { schedules : int }
  | Fail of failure
  | Exhausted of { schedules : int }
      (** hit the schedule budget before completing the search *)

let pp_trace ppf trace =
  Format.fprintf ppf "[%s]" (String.concat ";" (List.map string_of_int trace))

let trace_to_string trace = Format.asprintf "%a" pp_trace trace

let trace_of_string s =
  (* Strict parse: a schedule string that is not exactly what
     [trace_to_string] produces (modulo whitespace and comma
     separators) is a user error, and silently truncating or
     mis-reading it would replay the *wrong* schedule — reject with a
     message naming the offending token instead. *)
  let orig = s in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Sched.trace_of_string: " ^ m)) fmt
  in
  let s = String.trim s in
  let len = String.length s in
  let s =
    match (len > 0 && s.[0] = '[', len > 0 && s.[len - 1] = ']') with
    | true, true -> String.sub s 1 (len - 2)
    | false, false -> s
    | true, false | false, true -> fail "unbalanced brackets in %S" orig
  in
  if String.exists (fun c -> c = '[' || c = ']') s then
    fail "stray bracket inside %S" orig;
  let s = String.trim s in
  if s = "" then []
  else
    String.split_on_char ';' s
    |> List.concat_map (String.split_on_char ',')
    |> List.map (fun tok ->
           let t = String.trim tok in
           if t = "" then fail "empty element in %S" orig
           else
             (* [int_of_string_opt] covers both garbage and ints that
                overflow the native word. *)
             match int_of_string_opt t with
             | None -> fail "invalid fiber index %S in %S" t orig
             | Some i when i < 0 -> fail "negative fiber index %d in %S" i orig
             | Some i -> i)

let message_of_exn e =
  match e with
  | Failure m -> m
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | Step_bound_exceeded n ->
      Printf.sprintf "step bound (%d) exceeded: possible livelock under this schedule" n
  | e -> Printexc.to_string e

(** Re-run one schedule: follow [trace]; if the program runs past the
    end of the trace, continue with the first runnable fiber. *)
let replay ?max_steps ~trace (mk : unit -> scenario) : result =
  let arr = Array.of_list trace in
  let choose ~runnable ~last:_ ~step =
    if step < Array.length arr then arr.(step) else List.hd runnable
  in
  match run_schedule ?max_steps ~choose (mk ()) with
  | Ok _ -> Pass { schedules = 1 }
  | Error (e, t) ->
      Fail
        {
          f_trace = t;
          f_message = message_of_exn e;
          f_replay = "replay trace " ^ trace_to_string t;
          f_schedules = 1;
        }

(* ------------------------------------------------------------------ *)
(* Exhaustive DFS, optionally preemption-bounded *)

let preemptions_of ~trace ~alts =
  (* count context switches away from a still-runnable fiber *)
  let rec go last n trace alts =
    match (trace, alts) with
    | [], _ | _, [] -> n
    | c :: trace', rs :: alts' ->
        let n = if last >= 0 && c <> last && List.mem last rs then n + 1 else n in
        go c n trace' alts'
  in
  go (-1) 0 trace alts

let explore_dfs ?max_steps ?(max_schedules = 1_000_000) ?max_preemptions
    (mk : unit -> scenario) : result =
  let schedules = ref 0 in
  let budget_hit = ref false in
  (* Run one schedule following [prefix], then defaulting to "stay on
     the last fiber if runnable, else lowest index" — the
     preemption-free completion, so bounding preemptions only needs to
     look at deviations. *)
  let run_prefix prefix =
    incr schedules;
    let arr = Array.of_list prefix in
    let choose ~runnable ~last ~step =
      if step < Array.length arr then arr.(step)
      else if last >= 0 && List.mem last runnable then last
      else List.hd runnable
    in
    run_schedule ?max_steps ~choose (mk ())
  in
  (* DFS over the schedule tree: each run yields the executed trace and
     the runnable set at every step; recursing on every untried
     alternative at every depth >= |prefix| covers the subtree. *)
  let rec dfs prefix : result option =
    if !schedules >= max_schedules then begin
      budget_hit := true;
      None
    end
    else
      match run_prefix prefix with
      | Error (e, t) ->
          Some
            (Fail
               {
                 f_trace = t;
                 f_message = message_of_exn e;
                 f_replay = "replay trace " ^ trace_to_string t;
                 f_schedules = !schedules;
               })
      | Ok (trace, alts) ->
          let plen = List.length prefix in
          let trace_a = Array.of_list trace and alts_a = Array.of_list alts in
          let nsteps = Array.length trace_a in
          let rec deviate idx =
            if idx >= nsteps then None
            else begin
              let chosen = trace_a.(idx) in
              let head i = Array.to_list (Array.sub trace_a 0 i) in
              let rec alts_loop = function
                | [] -> deviate (idx + 1)
                | a :: rest when a = chosen -> alts_loop rest
                | a :: rest -> (
                    let prefix' = head idx @ [ a ] in
                    let ok_budget =
                      match max_preemptions with
                      | None -> true
                      | Some b ->
                          let alts_prefix =
                            Array.to_list (Array.sub alts_a 0 idx) @ [ alts_a.(idx) ]
                          in
                          preemptions_of ~trace:prefix' ~alts:alts_prefix <= b
                    in
                    if not ok_budget then alts_loop rest
                    else
                      match dfs prefix' with
                      | Some r -> Some r
                      | None -> alts_loop rest)
              in
              (* alternatives at steps inside the given prefix were
                 already covered by our caller *)
              if idx < plen then deviate (idx + 1) else alts_loop alts_a.(idx)
            end
          in
          deviate plen
  in
  match dfs [] with
  | Some r -> r
  | None ->
      if !budget_hit then Exhausted { schedules = !schedules }
      else Pass { schedules = !schedules }

(* ------------------------------------------------------------------ *)
(* Randomized explorers *)

let mix_seed seed iter = (seed * 1_000_003) + iter

let explore_random ?max_steps ?(iters = 1_000) ~seed (mk : unit -> scenario) : result =
  let rec go it =
    if it >= iters then Pass { schedules = iters }
    else begin
      let rng = Repro_util.Rng.create ~seed:(mix_seed seed it) in
      let choose ~runnable ~last:_ ~step:_ =
        List.nth runnable (Repro_util.Rng.int rng (List.length runnable))
      in
      match run_schedule ?max_steps ~choose (mk ()) with
      | Ok _ -> go (it + 1)
      | Error (e, t) ->
          Fail
            {
              f_trace = t;
              f_message = message_of_exn e;
              f_replay =
                Printf.sprintf "mode=random seed=%d iter=%d (trace %s)" seed it
                  (trace_to_string t);
              f_schedules = it + 1;
            }
    end
  in
  go 0

(* PCT (probabilistic concurrency testing): assign random priorities,
   run the highest-priority runnable fiber, and at [depth - 1] random
   change points drop the running fiber's priority below everything
   else. Finds any bug of depth d with probability >= 1/(n * k^(d-1))
   per run. *)
let explore_pct ?(max_steps = 10_000) ?(iters = 1_000) ?(depth = 3) ~seed
    (mk : unit -> scenario) : result =
  (* PCT draws change points from [0, k) where k estimates the run
     length in steps — NOT from [0, max_steps): the bound is orders of
     magnitude above real runs and change points would never land
     inside one. Probe one schedule to estimate k. *)
  let probe_len =
    let choose ~runnable ~last ~step:_ =
      if last >= 0 && List.mem last runnable then last else List.hd runnable
    in
    match run_schedule ~max_steps ~choose (mk ()) with
    | Ok (trace, _) -> List.length trace
    | Error (_, trace) -> List.length trace
  in
  let horizon = max 1 probe_len in
  let rec go it =
    if it >= iters then Pass { schedules = iters }
    else begin
      let rng = Repro_util.Rng.create ~seed:(mix_seed seed it) in
      let scen = mk () in
      let n = Array.length scen.fibers in
      (* priorities: higher value runs first; start with a random
         permutation of depth .. depth+n-1 so change points (0 ..
         depth-2, descending) always sink below initial priorities, at
         every depth *)
      let prio = Array.init n (fun i -> depth + i) in
      for i = n - 1 downto 1 do
        let j = Repro_util.Rng.int rng (i + 1) in
        let tmp = prio.(i) in
        prio.(i) <- prio.(j);
        prio.(j) <- tmp
      done;
      let change_points =
        Array.init (max 0 (depth - 1)) (fun _ -> Repro_util.Rng.int rng horizon)
      in
      let next_sink = ref (depth - 2) in
      let choose ~runnable ~last:_ ~step =
        let best =
          List.fold_left
            (fun acc i -> match acc with
              | Some j when prio.(j) >= prio.(i) -> acc
              | _ -> Some i)
            None runnable
        in
        let i = Option.get best in
        if Array.exists (fun cp -> cp = step) change_points then begin
          prio.(i) <- !next_sink;
          decr next_sink
        end;
        i
      in
      match run_schedule ~max_steps ~choose scen with
      | Ok _ -> go (it + 1)
      | Error (e, t) ->
          Fail
            {
              f_trace = t;
              f_message = message_of_exn e;
              f_replay =
                Printf.sprintf "mode=pct seed=%d iter=%d depth=%d (trace %s)" seed it
                  depth (trace_to_string t);
              f_schedules = it + 1;
            }
    end
  in
  go 0

let pp_result ppf = function
  | Pass { schedules } -> Format.fprintf ppf "pass (%d schedules)" schedules
  | Exhausted { schedules } ->
      Format.fprintf ppf "exhausted schedule budget (%d schedules) without a verdict"
        schedules
  | Fail f ->
      Format.fprintf ppf "counterexample after %d schedules:@.  %s@.  schedule %a@.  replay: %s"
        f.f_schedules f.f_message pp_trace f.f_trace f.f_replay
