(* The per-scheme instrumentation bundle.

   Every SMR scheme binds one of these at module-initialization time
   ([let om = Obs.Scheme_metrics.v name]) and calls the [on_*] helpers
   from its protocol entry points. Each hot hook is an inlined test of
   the flags its body reads around an out-of-line body (the pattern of
   [Metrics.add]), so with telemetry off a hook costs one load and a
   branch at its call site, and no call; [on_retire] returns [no_stamp]
   then, so disabled runs allocate nothing per retire.

   Latency accounting: [on_retire] bumps the operation-tick clock on
   every retire, and for sampled retires returns a stamp holding the
   current tick, which the scheme stores in the retire record. When the
   record finally runs (at eject or drain time), [on_reclaim] observes
   the tick delta as the entry's reclamation latency in "subsequent
   retires survived" — the paper's bounded-garbage quantity,
   deterministic under a fixed seed — before the operation runs, so
   instrumentation cannot change reclamation order or effects. A stamp
   also names its bundle (its low [index_bits]), so the run knows whose
   histogram to feed without the record carrying it. *)

type t = {
  scheme : string;
  index : int; (* in [latency_histos] *)
  acquire : Metrics.counter;
  slot_exhausted : Metrics.counter;
  confirm_retry : Metrics.counter;
  retire : Metrics.counter;
  knob_ignored : Metrics.counter;
  eject_scans : Metrics.counter;
  eject_ops : Metrics.counter;
  abandon : Metrics.counter;
  eject_batch : Histo.t;
  (* Preallocated constant events for the hot, sampled trace points, so
     an emitted acquire/retire allocates only its ring entry. *)
  ev_acquire : Trace.ev;
  ev_confirm_retry : Trace.ev;
  ev_retire : Trace.ev;
}

let no_stamp = -1
let index_bits = 8

(* Every bundle's latency histogram, by bundle index: what a stamp's
   low bits name. Bundles are bound at module initialization, one per
   scheme module; binding a scheme again reuses its index. *)
let latency_histos : Histo.t array ref = ref [||]

let index_of h =
  let hs = !latency_histos in
  let rec find i =
    if i = Array.length hs then begin
      if i >= 1 lsl index_bits then invalid_arg "Scheme_metrics.v: too many bundles";
      latency_histos := Array.append hs [| h |];
      i
    end
    else if hs.(i) == h then i
    else find (i + 1)
  in
  find 0

let v scheme =
  let p = "smr." ^ String.lowercase_ascii scheme ^ "." in
  {
    scheme;
    index = index_of (Histo.histo (p ^ "reclaim_latency"));
    acquire = Metrics.counter (p ^ "acquire");
    slot_exhausted = Metrics.counter (p ^ "slot_exhausted");
    confirm_retry = Metrics.counter (p ^ "confirm_retry");
    retire = Metrics.counter (p ^ "retire");
    knob_ignored = Metrics.counter (p ^ "knob_ignored");
    eject_scans = Metrics.counter (p ^ "eject.scans");
    eject_ops = Metrics.counter (p ^ "eject.ops");
    abandon = Metrics.counter (p ^ "abandon");
    eject_batch = Histo.histo (p ^ "eject.batch_size");
    ev_acquire = Trace.Acquire { scheme };
    ev_confirm_retry = Trace.Confirm_retry { scheme };
    ev_retire = Trace.Retire { scheme };
  }

(* Acquire and retire run once per data-structure operation, so their
   trace events are sampled (see [Trace.should_sample]); their counters
   stay exact. The body runs exactly when a flag it reads is set, so
   gating it changes no count. *)
let[@inline never] acquire_enabled t ~pid =
  Metrics.incr t.acquire ~pid;
  if Trace.should_sample ~pid then Trace.emit ~pid t.ev_acquire

let[@inline] on_acquire t ~pid =
  if Metrics.enabled () || Trace.enabled () then acquire_enabled t ~pid

let[@inline] on_slot_exhausted t ~pid = Metrics.incr t.slot_exhausted ~pid

(* A knob was passed to [create] that this scheme does not read (e.g.
   [epoch_freq] for HP, anything for Leaky). The value was still
   range-checked; the counter records the misuse so callers tuning a
   knob that cannot matter find out from [stats] instead of silence. *)
let on_knob_ignored t ~knob:_ = Metrics.incr t.knob_ignored ~pid:0

let[@inline never] confirm_retry_enabled t ~pid =
  Metrics.incr t.confirm_retry ~pid;
  if Trace.should_sample ~pid then Trace.emit ~pid t.ev_confirm_retry

let[@inline] on_confirm_retry t ~pid =
  if Metrics.enabled () || Trace.enabled () then confirm_retry_enabled t ~pid

(* Returns the stamp to store in the retire record. The retire counter
   and the tick clock move on every retire (both are single plain
   stores); the trace event and the latency sample ride the 1-in-32
   [Trace.should_sample] gate, so the histogram is a uniform sample of
   retirements rather than a census — percentiles are unaffected. *)
let[@inline never] retire_enabled t ~pid =
  Metrics.incr t.retire ~pid;
  Tick.bump ~pid;
  if not (Trace.should_sample ~pid) then no_stamp
  else begin
    Trace.emit ~pid t.ev_retire;
    (Tick.now () lsl index_bits) lor t.index
  end

let[@inline] on_retire t ~pid = if Metrics.enabled () then retire_enabled t ~pid else no_stamp

let on_reclaim ~pid stamp =
  let h = Array.unsafe_get !latency_histos (stamp land ((1 lsl index_bits) - 1)) in
  Histo.observe h ~pid (Tick.now () - (stamp lsr index_bits))

(* Call at every eject scan site with the size of the batch about to be
   returned. The trace event, which carries the batch, is built only
   while tracing is on, so metrics alone allocate nothing per eject. *)
let[@inline never] eject_enabled t ~pid n =
  Metrics.incr t.eject_scans ~pid;
  if n > 0 then begin
    Metrics.add t.eject_ops ~pid n;
    Histo.observe t.eject_batch ~pid n;
    if Trace.enabled () then Trace.emit ~pid (Trace.Eject { scheme = t.scheme; batch = n })
  end

let[@inline] on_eject t ~pid n = if Metrics.enabled () then eject_enabled t ~pid n

let on_abandon t ~pid =
  Metrics.incr t.abandon ~pid;
  Trace.emit ~pid (Trace.Abandon { scheme = t.scheme })
