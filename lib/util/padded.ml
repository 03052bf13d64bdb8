type 'a t = 'a Sched.Atomic.t array

let stride = 8

let create n init = Array.init (n * stride) (fun _ -> Sched.Atomic.make init)
let length t = Array.length t / stride
let get t i = Sched.Atomic.get t.(i * stride)
let set t i v = Sched.Atomic.set t.(i * stride) v
let exchange t i v = Sched.Atomic.exchange t.(i * stride) v
let compare_and_set t i expected desired = Sched.Atomic.compare_and_set t.(i * stride) expected desired
let add t i v = ignore (Sched.Atomic.fetch_and_add t.(i * stride) v)

let fold f acc t =
  let n = length t in
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := f !acc (get t i)
  done;
  !acc
