(* Must compile: the same API used legally — the guard is released
   inside its scope and only the protected value's contents leave. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Atomic.make (Ar.alloc ar ~pid:0 0)

let value =
  Ar.scope ar ~pid:0
    {
      f =
        (fun s ->
          match Ar.protect s ~ident:Ar.ident cell with
          | Some (m, g) ->
              let v = Ar.get m in
              Ar.release s g;
              Some v
          | None -> None);
    }
