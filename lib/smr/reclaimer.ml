(** The reclamation half of EBR, IBR, HE, HP, PTB and the leaky
    baseline (the record manager of Brown's DEBRA split, PAPERS.md): a
    pid's retired queue, its scan's batch, the scan cadence, the orphan
    pool and the telemetry of retire, eject and abandon. The scheme
    keeps its protocol and its [collect], a snapshot plus a top-level
    [safe] predicate. One record per pid, so the inline cadence check
    reads [t.r.(pid)]'s tally; owner-pid only, but for the shared
    orphan pool. *)

type t = {
  retired : Retire_queue.t; (* meta = the scheme's retire-time tag *)
  out : Retire_queue.t; (* the batch this pid's scan builds *)
  mutable since_scan : int; (* records queued since the last due scan *)
  every : int; (* scan period *)
  orphans : Orphanage.t; (* records of crashed pids; shared *)
  om : Obs.Scheme_metrics.t;
}

let create ~om ~every ~max_threads =
  let orphans = Orphanage.create () in
  Array.init max_threads (fun _ ->
      {
        retired = Retire_queue.create ();
        out = Retire_queue.create ();
        since_scan = 0;
        every;
        orphans;
        om;
      })

(** Queue a detached record, counted toward the next scan. *)
let[@inline] requeue r d =
  Retire_queue.push r.retired d;
  r.since_scan <- r.since_scan + 1

(** Stamp the record's telemetry sample, write [meta], queue it. *)
let[@inline] retire r ~pid ~meta d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire r.om ~pid);
  Deferred.set_meta d meta;
  requeue r d

(* Out of line: [collect env ~pid r] moves what is safe into [r.out];
   a top-level [collect] and an [env] at hand build no closure. *)
let scan r ~pid collect env =
  collect env ~pid r;
  Obs.Scheme_metrics.on_eject r.om ~pid (Retire_queue.size r.out);
  Retire_queue.take r.out

(** The records now safe, as a chain: a scan every [every] records
    queued, or now under [~force] (which leaves the tally running). *)
let[@inline] eject r ~force ~pid collect env =
  if force then scan r ~pid collect env
  else if r.since_scan >= r.every then begin
    r.since_scan <- 0;
    scan r ~pid collect env
  end
  else Deferred.Nil

(** A scan's common step: move every record [safe env] accepts from
    the pid's queue, then from the orphan pool, to its batch. *)
let[@inline] keep r safe env =
  Retire_queue.filter_pop r.retired ~into:r.out safe env;
  Orphanage.adopt r.orphans ~into:r.out safe env

let retired_count rs ~pid = Retire_queue.size rs.(pid).retired

(** Count the abandon, then hand [held] (records the scheme parked on
    the pid's announcements) and the pid's queue to the orphan pool. *)
let abandon rs ~pid held =
  let r = rs.(pid) in
  Obs.Scheme_metrics.on_abandon r.om ~pid;
  Orphanage.put r.orphans (Deferred.concat held (Retire_queue.take r.retired))

(** The orphan pool followed by every pid's queue, as one chain.
    Quiescent teardown only. *)
let drain_all rs =
  let all = Retire_queue.create () in
  ignore (Retire_queue.splice all (Orphanage.take_all rs.(0).orphans));
  Array.iter (fun r -> ignore (Retire_queue.splice all (Retire_queue.take r.retired))) rs;
  Retire_queue.take all
