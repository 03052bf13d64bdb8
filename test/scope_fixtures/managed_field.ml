(* expect: Unbound record field Ar\.value *)
(* Must not compile: a managed node is abstract, so its value cannot be
   read past [get]. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let m = Ar.alloc ar ~pid:0 0
let value = m.Ar.value
