(* expect: less general than 's\. 's [A-Za-z_.]*scope -> ' *)
(* Must not compile: the body stores its guard into a mutable field of
   a context created outside the scope, where it would outlive the
   critical section that backs it. *)
module Ar = Acquire_retire.Make (Smr.Hp)

type 's ctx = { pid : int; mutable saved : 's Ar.guard option }

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)
let c = { pid = 0; saved = None }

let () =
  Ar.scope ar ~pid:c.pid
    {
      f =
        (fun s () () ->
          ignore (Ar.protect s ~ident:Ar.ident cell);
          let g = Ar.guard s in
          c.saved <- Some g);
    } () ()
