(* rc-lint fixture: two identical Obj escapes outside the allowlist;
   the annotated binding is silent and the other still fires. Never
   compiled. *)
let coerce_ok (x : int) : string = Obj.magic x [@@rc_lint.allow "R4"]
let coerce (x : int) : string = Obj.magic x
