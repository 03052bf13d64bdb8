(* The wait-free sticky counter of paper §4.3 / Fig 7. Every atomic
   step of the zero-flag/help-flag dance below goes through
   [Sched.Atomic], so the schedule explorer checks this very code
   schedule by schedule (test/test_sched.ml). *)

type t = int Sched.Atomic.t

(* OCaml ints are 63-bit; reserve the two top usable bits. *)
let zero_flag = 1 lsl 61
let help_flag = 1 lsl 60
let max_value = help_flag - 1

(* Sticky counters have no pid in their API; shard telemetry by the
   calling domain instead. *)
let stick_c = Obs.Metrics.counter "sticky.stick"
let cas_fail_c = Obs.Metrics.counter "sticky.cas_fail"
let help_c = Obs.Metrics.counter "sticky.help"
let self_pid () = (Domain.self () :> int)

(* Seeded mutation for harness validation: when set, [load] announces a
   death with the zero flag alone, "forgetting" to publish the help
   flag. The racing decrement then finds neither a CAS-able 0 nor a
   help mark and takes no death credit — the exact Fig 7 bug the
   schedule explorer must be able to find. It takes effect only inside
   an interposed fiber, so a leftover setting cannot reach production
   code. *)
let mutation_drop_help_publish = ref false

let create n =
  if n < 0 || n > max_value then invalid_arg "Sticky_counter.create";
  Sched.Atomic.make (if n = 0 then zero_flag else n)

let increment_if_not_zero t =
  let v = Sched.Atomic.fetch_and_add t 1 in
  v land zero_flag = 0

let rec decrement_slow t =
  (* Stored value hit 0: try to announce death by setting the zero
     flag. If the CAS fails, either an increment revived the counter or
     a load helped by writing [zero|help]. *)
  if Sched.Atomic.compare_and_set t 0 zero_flag then begin
    Obs.Metrics.incr stick_c ~pid:(self_pid ());
    true
  end
  else begin
    Obs.Metrics.incr cas_fail_c ~pid:(self_pid ());
    let e = Sched.Atomic.get t in
    if e land help_flag <> 0 then
      (* A load announced the death for us; exactly one decrement may
         claim it by clearing the help flag with an exchange. *)
      Sched.Atomic.exchange t zero_flag land help_flag <> 0
    else if e = 0 then
      (* The counter was revived and brought back to 0 by another
         decrement in between; retry against the current state. *)
      decrement_slow t
    else
      (* Revived (e ≥ 1), or a later decrement already claimed the
         death (zero set, no help): we did not bring it to zero. *)
      false
  end

let decrement t = if Sched.Atomic.fetch_and_add t (-1) = 1 then decrement_slow t else false

let rec load t =
  let e = Sched.Atomic.get t in
  if e = 0 then begin
    (* Stored 0 is ambiguous: a decrement is mid-flight. Help it
       announce the death so we can return a linearizable 0. *)
    let announce =
      if !mutation_drop_help_publish && Sched.Atomic.interposed () then zero_flag
      else zero_flag lor help_flag
    in
    if Sched.Atomic.compare_and_set t 0 announce then begin
      Obs.Metrics.incr help_c ~pid:(self_pid ());
      0
    end
    else load t
  end
  else if e land zero_flag <> 0 then 0
  else e

let is_zero t = load t = 0
let raw t = Sched.Atomic.get t
