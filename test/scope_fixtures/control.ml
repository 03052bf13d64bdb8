(* Must compile: the same API used legally — each guard is released
   inside its scope, the node is read through its guard, unlinked,
   retired under the witness, and only the values leave. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)
let next = Ar.alloc ar ~pid:0 1

let value =
  Ar.scope ar ~pid:0
    {
      f =
        (fun s () () ->
          let m = Ar.protect s ~ident:Ar.ident cell in
          let g = Ar.guard s in
          if not (Ar.guarded g) then None
          else
            let v = Ar.get s g m in
            match Ar.unlink s ~eq:( == ) cell ~expected:m ~desired:next m with
            | Some w ->
                Ar.retire_free s w g;
                Some v
            | None ->
                Ar.release s g;
                Some v);
    } () ()
