(* Mutable per-instance knob block (see the .mli). Each knob is one
   logical cell of a padded atomic array: scheme threads read knobs on
   hot-ish paths (every alloc / eject-due check), the controller writes
   them from the sampler thread, and padding keeps the two from
   false-sharing. [slots_per_thread] is structural (slot arrays are
   sized at create) and therefore a plain immutable field. *)
let default_epoch_freq = 40
let default_cleanup_freq = 64
let default_slots_per_thread = 8
let default_batch_cap = max_int

(* Cell indices. *)
let i_epoch = 0
let i_cleanup = 1
let i_batch = 2
let i_sync = 3
let n_cells = 4

type t = {
  scheme : string;
  cells : int Padded.t;
  slots_per_thread : int;
  (* Registry mirrors: the effective values [stats --json] reports.
     Gauges are last-write-wins, so re-instantiating a scheme (or
     retuning at runtime) leaves the latest value visible. *)
  g_epoch : Obs.Metrics.gauge;
  g_cleanup : Obs.Metrics.gauge;
  g_batch : Obs.Metrics.gauge;
  g_sync : Obs.Metrics.gauge;
}

let scheme t = t.scheme

let validate ~scheme ~knob v =
  if v <= 0 then
    invalid_arg
      (Printf.sprintf "%s.create: %s must be positive (got %d)" scheme knob v)

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ?batch_cap ~scheme () =
  let pick ~knob ~default = function
    | None -> default
    | Some v ->
        validate ~scheme ~knob v;
        v
  in
  let epoch = pick ~knob:"epoch_freq" ~default:default_epoch_freq epoch_freq in
  let cleanup = pick ~knob:"cleanup_freq" ~default:default_cleanup_freq cleanup_freq in
  let slots = pick ~knob:"slots_per_thread" ~default:default_slots_per_thread slots_per_thread in
  let batch = pick ~knob:"batch_cap" ~default:default_batch_cap batch_cap in
  let cells = Padded.create n_cells 0 in
  Padded.set cells i_epoch epoch;
  Padded.set cells i_cleanup cleanup;
  Padded.set cells i_batch batch;
  Padded.set cells i_sync 0;
  let p = "smr." ^ String.lowercase_ascii scheme ^ ".knob." in
  let t =
    {
      scheme;
      cells;
      slots_per_thread = slots;
      g_epoch = Obs.Metrics.gauge (p ^ "epoch_freq");
      g_cleanup = Obs.Metrics.gauge (p ^ "cleanup_freq");
      g_batch = Obs.Metrics.gauge (p ^ "batch_cap");
      g_sync = Obs.Metrics.gauge (p ^ "sync_scan");
    }
  in
  Obs.Metrics.set_gauge t.g_epoch epoch;
  Obs.Metrics.set_gauge t.g_cleanup cleanup;
  Obs.Metrics.set_gauge t.g_batch batch;
  Obs.Metrics.set_gauge t.g_sync 0;
  t

let epoch_freq t = Padded.get t.cells i_epoch
let cleanup_freq t = Padded.get t.cells i_cleanup
let batch_cap t = Padded.get t.cells i_batch
let sync_scan t = Padded.get t.cells i_sync <> 0
let slots_per_thread t = t.slots_per_thread

let set_epoch_freq t v =
  validate ~scheme:t.scheme ~knob:"epoch_freq" v;
  Padded.set t.cells i_epoch v;
  Obs.Metrics.set_gauge t.g_epoch v

let set_cleanup_freq t v =
  validate ~scheme:t.scheme ~knob:"cleanup_freq" v;
  Padded.set t.cells i_cleanup v;
  Obs.Metrics.set_gauge t.g_cleanup v

let set_batch_cap t v =
  validate ~scheme:t.scheme ~knob:"batch_cap" v;
  Padded.set t.cells i_batch v;
  Obs.Metrics.set_gauge t.g_batch v

let set_sync_scan t v =
  Padded.set t.cells i_sync (if v then 1 else 0);
  Obs.Metrics.set_gauge t.g_sync (if v then 1 else 0)

type handle = {
  h_scheme : string;
  h_knobs : t;
  h_force_advance : unit -> unit;
}
