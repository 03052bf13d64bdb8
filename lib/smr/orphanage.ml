type 'meta t = ('meta * Deferred.t) list Sched.Atomic.t

let create () = Sched.Atomic.make []

let rec put t entries =
  match entries with
  | [] -> ()
  | _ ->
      let cur = Sched.Atomic.get t in
      if not (Sched.Atomic.compare_and_set t cur (entries @ cur)) then put t entries

let take_all t = Sched.Atomic.exchange t []
let size t = List.length (Sched.Atomic.get t)
