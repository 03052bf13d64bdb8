(* rc-lint fixture: the same raw-atomic escape as smr/bad_r1_stdlib.ml,
   but annotated at the site — must produce zero findings. Never
   compiled. *)
let seeded () = (Stdlib.Atomic.make 0 [@rc_lint.allow "R1"])
let fine () = Sched.Atomic.make 0
