(* expect: less general than 's\. 's [A-Za-z_.]*scope -> ' *)
(* Must not compile: the body assigns its guard to a top-level ref. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)
let last = ref None

let () =
  Ar.scope ar ~pid:0
    {
      f =
        (fun s () () ->
          ignore (Ar.protect s ~ident:Ar.ident cell);
          let g = Ar.guard s in
          last := Some g);
    } () ()
