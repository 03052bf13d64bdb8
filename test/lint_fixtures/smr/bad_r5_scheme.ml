(* rc-lint fixture: an SMR scheme defining [retire] without touching
   Obs.Scheme_metrics.on_retire — telemetry would silently rot. Never
   compiled. *)
let retire _t ~pid:_ _d = ()
let acquire _t ~pid:_ _ = None
