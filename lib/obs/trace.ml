(* Bounded per-domain event rings.

   Each pid owns a ring of [capacity] entries, written only by that pid
   (owner-write), so recording an event is: one global fetch-and-add
   for the sequence number, one store into each of the ring's three
   columns (sequence, pid, event), one bump of the local cursor. The
   columns are unboxed, so recording a preallocated event allocates
   nothing; an entry record, held by the ring until it wraps, would be
   promoted on every emit. When the ring wraps, the oldest events are
   overwritten — the trace is a flight recorder, not a log. Export
   collects all rings, sorts by sequence number, and emits JSONL; the
   sequence gives a single global order without the writers ever
   synchronizing on more than the one counter.

   Rings are indexed by [pid land (max_pids - 1)]; OCaml domain ids
   grow monotonically across a process's lifetime, so two pids *can*
   collide on a ring in long sessions — each entry carries its real
   pid, so a collision interleaves two domains' events in one ring
   rather than misattributing them. *)

let capacity = 4096
let max_pids = 128
let ring_mask = max_pids - 1

type ev =
  | Acquire of { scheme : string }
  | Confirm_retry of { scheme : string }
  | Retire of { scheme : string }
  | Eject of { scheme : string; batch : int }
  | Abandon of { scheme : string }
  | Watchdog of { scheme : string; verdict : string }
  | Fault of { site : string; action : string }
  | Sample of { t_ms : int; ops_per_s : int; live : int; backlog : int }

type entry = { seq : int; e_pid : int; ev : ev }

(* What an unwritten ring slot holds. *)
let no_ev = Sample { t_ms = 0; ops_per_s = 0; live = 0; backlog = 0 }

(* A slot [i] holds an event when [seqs.(i) >= 0]. A ring is its owner
   pid's alone, in blocks of its own. *)
type ring = {
  seqs : int array;
  pids : int array;
  evs : ev array;
  mutable cursor : int;
  mutable written : int;
}

let enabled_flag = Atomic.make false
let[@inline] enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let seq = Atomic.make 0
let rings : ring option Atomic.t array = Array.init max_pids (fun _ -> Atomic.make None)

let ring_for pid =
  let i = pid land ring_mask in
  match Atomic.get rings.(i) with
  | Some r -> r
  | None ->
      let r =
        {
          seqs = Array.make capacity (-1);
          pids = Array.make capacity 0;
          evs = Array.make capacity no_ev;
          cursor = 0;
          written = 0;
        }
      in
      (* A CAS loss means another pid sharing this index raced us to
         install a ring; use theirs. *)
      if Atomic.compare_and_set rings.(i) None (Some r) then r
      else Option.get (Atomic.get rings.(i))

let emit ~pid ev =
  if Atomic.get enabled_flag then begin
    let r = ring_for pid in
    let s = Atomic.fetch_and_add seq 1 in
    r.evs.(r.cursor) <- ev;
    r.pids.(r.cursor) <- pid;
    r.seqs.(r.cursor) <- s;
    r.cursor <- (r.cursor + 1) mod capacity;
    r.written <- r.written + 1
  end

(* Per-operation events (acquire, retire) fire millions of times a
   second; recording each one would roughly double the cost of the
   operations being observed. Hot call sites therefore gate their
   [emit] on this predicate, which keeps 1 in [2^sample_shift] events
   per ring and — crucially — allocates nothing on the skipped 31/32:
   the caller only constructs the event value after a [true]. Rare
   events (eject, abandon, watchdog, fault, sample) keep full fidelity
   by calling [emit] directly. *)
let sample_shift = 5

(* Each pid's sampling clock for hot-path events, owner-written: one
   live int per cache line, indexed like the rings. *)
let tick_stride = 8
let ticks = Array.make (max_pids * tick_stride) 0

let[@inline never] sample_tick ~pid =
  let i = (pid land ring_mask) * tick_stride in
  let t = Array.unsafe_get ticks i + 1 in
  Array.unsafe_set ticks i t;
  t land ((1 lsl sample_shift) - 1) = 0

(* The flag test, inlined at every call site, as [Metrics.add]'s. *)
let[@inline] should_sample ~pid = Atomic.get enabled_flag && sample_tick ~pid

let reset () =
  Atomic.set seq 0;
  Array.fill ticks 0 (Array.length ticks) 0;
  Array.iter (fun cell -> Atomic.set cell None) rings

(** Total events recorded since the last [reset], including ones that
    have since been overwritten. *)
let emitted () = Atomic.get seq

let fields_of_ev = function
  | Acquire { scheme } -> ("acquire", [ ("scheme", Json.String scheme) ])
  | Confirm_retry { scheme } -> ("confirm_retry", [ ("scheme", String scheme) ])
  | Retire { scheme } -> ("retire", [ ("scheme", String scheme) ])
  | Eject { scheme; batch } -> ("eject", [ ("scheme", String scheme); ("batch", Int batch) ])
  | Abandon { scheme } -> ("abandon", [ ("scheme", String scheme) ])
  | Watchdog { scheme; verdict } ->
      ("watchdog", [ ("scheme", String scheme); ("verdict", String verdict) ])
  | Fault { site; action } -> ("fault", [ ("site", String site); ("action", String action) ])
  | Sample { t_ms; ops_per_s; live; backlog } ->
      ( "sample",
        [ ("t_ms", Int t_ms); ("ops_per_s", Int ops_per_s); ("live", Int live); ("backlog", Int backlog) ] )

let entry_to_json { seq; e_pid; ev } =
  let kind, fields = fields_of_ev ev in
  Json.to_string (Obj (("seq", Int seq) :: ("pid", Int e_pid) :: ("ev", String kind) :: fields))

(** All surviving entries across all rings, in global sequence order. *)
let entries () =
  let acc = ref [] in
  Array.iter
    (fun cell ->
      match Atomic.get cell with
      | None -> ()
      | Some r ->
          Array.iteri
            (fun i seq -> if seq >= 0 then acc := { seq; e_pid = r.pids.(i); ev = r.evs.(i) } :: !acc)
            r.seqs)
    rings;
  List.sort (fun a b -> compare a.seq b.seq) !acc

let to_jsonl () = entries () |> List.map entry_to_json

let export_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = ref 0 in
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n';
          incr n)
        (to_jsonl ());
      !n)
