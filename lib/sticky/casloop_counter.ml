type t = int Sched.Atomic.t

let create n =
  if n < 0 then invalid_arg "Casloop_counter.create";
  Sched.Atomic.make n

let rec increment_if_not_zero t =
  let v = Sched.Atomic.get t in
  if v = 0 then false
  else if Sched.Atomic.compare_and_set t v (v + 1) then true
  else increment_if_not_zero t

let rec decrement t =
  let v = Sched.Atomic.get t in
  if Sched.Atomic.compare_and_set t v (v - 1) then v - 1 = 0 else decrement t

let load t = Sched.Atomic.get t
let is_zero t = load t = 0
let raw t = Sched.Atomic.get t
