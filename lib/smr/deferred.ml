(** Retire records: the deferred operations recorded by [retire].

    A record is one block that carries everything a retired entry needs
    on its way from [retire] to the run: the identity and birth tag of
    the object it names, the scheme's retire-time tag ([meta]: EBR's
    retire epoch, IBR's retire epoch, HE's retire era), the telemetry
    stamp of a sampled reclamation-latency measurement, an intrusive
    [next] link, and the operation as a run function plus its argument.
    Retired queues, eject batches, orphan pools and the runtime's
    deferred-op queue all thread [next], so no stage after [retire]
    allocates (the Hyaline-style retire header, PAPERS.md).

    The run function is shared, not built per retire: CDRC builds its
    three (decrement, weak decrement, dispose) once per runtime, and a
    manual [retire_free] uses a static one. It receives the pid of the
    {e executing} thread, which may differ from the retiring thread:
    Hyaline ejects from a global pool, so whoever drains it runs the
    operation. Automatic reference counting uses the pid to route
    cascading decrements into the executing thread's pending queue.

    A record is in at most one chain at a time, and its [next] is [Nil]
    while it is detached. *)

type t =
  | Nil
  | D : {
      mutable next : t;
      mutable id : Ident.t;
      mutable birth : int;
      mutable meta : int;
      mutable stamp : int;
      run : int -> 'a -> unit;
      arg : 'a;
    }
      -> t

let[@inline] make ~id ~birth run arg =
  D { next = Nil; id; birth; meta = 0; stamp = Obs.Scheme_metrics.no_stamp; run; arg }

let apply pid f = f pid

(** A record running the closure [f]. It allocates the closure besides
    the record, so only tests and cold paths use it. *)
let of_fun ?(id = Ident.null) ?(birth = 0) (f : int -> unit) = make ~id ~birth apply f

let[@inline] next = function D r -> r.next | Nil -> Nil
let[@inline] set_next d n = match d with D r -> r.next <- n | Nil -> ()
let[@inline] id = function D r -> r.id | Nil -> Ident.null
let[@inline] birth = function D r -> r.birth | Nil -> 0
let[@inline] meta = function D r -> r.meta | Nil -> 0
let[@inline] set_meta d m = match d with D r -> r.meta <- m | Nil -> ()
let[@inline] set_stamp d s = match d with D r -> r.stamp <- s | Nil -> ()

(** Give a record a new identity and birth tag (a re-retire under a
    never-announced identity). *)
let rename d ~id ~birth =
  match d with
  | D r ->
      r.id <- id;
      r.birth <- birth
  | Nil -> ()

(** Run the record's operation as [pid], first closing its latency
    sample if it carries one. *)
let[@inline] run d ~pid =
  match d with
  | D r ->
      if r.stamp <> Obs.Scheme_metrics.no_stamp then
        Obs.Scheme_metrics.on_reclaim ~pid r.stamp;
      r.run pid r.arg
  | Nil -> ()

(** The number of records in the chain that starts at [d]. *)
let length d =
  let rec go n = function Nil -> n | D r -> go (n + 1) r.next in
  go 0 d

(** The last record of a non-empty chain. *)
let rec last d = match next d with Nil -> d | nx -> last nx

(** The chain [a] followed by the chain [b]. *)
let concat a b =
  match a with
  | Nil -> b
  | D _ ->
      set_next (last a) b;
      a

(** Run every record of a chain, in order, as [pid]. *)
let rec run_all d ~pid =
  match d with
  | Nil -> ()
  | D r ->
      let rest = r.next in
      run d ~pid;
      run_all rest ~pid
