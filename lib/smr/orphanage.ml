type 'meta t = ('meta * Deferred.t) list Sched.Atomic.t

let create () = Sched.Atomic.make []

let rec put t entries =
  match entries with
  | [] -> ()
  | _ ->
      let cur = Sched.Atomic.get t in
      if not (Sched.Atomic.compare_and_set t cur (entries @ cur)) then put t entries

let take_all t = Sched.Atomic.exchange t []

let adopt t ~safe ops =
  match take_all t with
  | [] -> ops
  | entries -> (
      let ready, blocked = List.partition (fun (m, _) -> safe m) entries in
      put t blocked;
      match ready with [] -> ops | _ -> ops @ List.map snd ready)

let size t = List.length (Sched.Atomic.get t)
