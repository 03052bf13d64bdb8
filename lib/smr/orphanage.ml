type t = Deferred.t Sched.Atomic.t

let create () = Sched.Atomic.make Deferred.Nil

(* Link the pool's current chain behind [tl], the last record of
   [chain], and publish [chain] as the pool. *)
let rec put_before t chain tl =
  let cur = Sched.Atomic.get t in
  Deferred.set_next tl cur;
  if not (Sched.Atomic.compare_and_set t cur chain) then put_before t chain tl

let put t chain =
  match chain with Deferred.Nil -> () | Deferred.D _ -> put_before t chain (Deferred.last chain)

let take_all t = Sched.Atomic.exchange t Deferred.Nil

let adopt t ~into safe env =
  match take_all t with
  | Deferred.Nil -> ()
  | chain ->
      let pool = Retire_queue.create () in
      ignore (Retire_queue.splice pool chain);
      Retire_queue.filter_pop pool ~into safe env;
      put t (Retire_queue.take pool)

let drain_all t queues =
  let all = Retire_queue.create () in
  ignore (Retire_queue.splice all (take_all t));
  Array.iter (fun q -> ignore (Retire_queue.splice all (Retire_queue.take q))) queues;
  Retire_queue.take all
