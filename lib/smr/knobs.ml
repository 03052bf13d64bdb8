(* A scheme instance's knobs (see the .mli), validated and mirrored
   into registry gauges once, at create. *)
type t = { epoch_freq : int; cleanup_freq : int; slots_per_thread : int }
type knob = [ `Epoch_freq | `Cleanup_freq | `Slots_per_thread ]

let default_epoch_freq = 40
let default_cleanup_freq = 64
let default_slots_per_thread = 8

let create ?epoch_freq ?cleanup_freq ?slots_per_thread
    ?(reads = [ `Epoch_freq; `Cleanup_freq; `Slots_per_thread ]) ~scheme () =
  let prefix = "smr." ^ String.lowercase_ascii scheme ^ ".knob." in
  (* Gauges are last-write-wins: re-instantiating a scheme leaves the
     latest values visible. *)
  let pick id knob default v =
    if Option.is_some v && not (List.mem id reads) then
      Obs.Scheme_metrics.on_knob_ignored (Obs.Scheme_metrics.v scheme) ~knob;
    let v = Option.value v ~default in
    if v <= 0 then
      invalid_arg (Printf.sprintf "%s.create: %s must be positive (got %d)" scheme knob v);
    Obs.Metrics.set_gauge (Obs.Metrics.gauge (prefix ^ knob)) v;
    v
  in
  let epoch_freq = pick `Epoch_freq "epoch_freq" default_epoch_freq epoch_freq in
  let cleanup_freq = pick `Cleanup_freq "cleanup_freq" default_cleanup_freq cleanup_freq in
  let slots_per_thread =
    pick `Slots_per_thread "slots_per_thread" default_slots_per_thread slots_per_thread
  in
  { epoch_freq; cleanup_freq; slots_per_thread }
