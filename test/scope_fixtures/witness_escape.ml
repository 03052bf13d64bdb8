(* expect: less general than 's\. 's [A-Za-z_.]*scope -> ' *)
(* Must not compile: the body returns its unlink witness, which would
   let a retire run in another scope, or after the section closed. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)
let next = Ar.alloc ar ~pid:0 1

let escaped =
  Ar.scope ar ~pid:0
    {
      f =
        (fun s () () ->
          let m = Sched.Atomic.get cell in
          Ar.unlink s ~eq:( == ) cell ~expected:m ~desired:next m);
    } () ()
