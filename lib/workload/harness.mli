(** The one measurement loop (DESIGN.md §1, §4, §11).

    Every row of the experiment table ({!Table}: the figures, the
    ablations, the perf matrix, the KV rows and the fault rows) drives
    its workers through {!run}, the timed multi-domain loop: spawn
    [threads] worker domains with pids [1..threads] (pid 0 belongs to
    the coordinator, which prefills and samples), sample or sleep for
    [duration], raise the stop flag, join. A worker exception never
    escapes and is never swallowed: it ends that worker, is printed to
    stderr with the run's name, and is tallied by kind in the result. *)

type errors = (string * int) list
(** Worker deaths by exception kind, sorted by kind; [[]] when every
    worker returned normally. Kinds are ["Use_after_free"] and
    ["Double_free"] for the {!Simheap} safety violations, otherwise the
    exception constructor's name (e.g. ["Failure"]). *)

type result = {
  ops : int;  (** sum of each worker's last reported op count *)
  elapsed : float;  (** seconds from spawn to the last join *)
  mops : float;
  errors : errors;
}

val run :
  name:string ->
  threads:int ->
  duration:float ->
  ?sample:float * (elapsed:float -> ops:int -> unit) ->
  (int -> (int -> bool) -> unit) ->
  result
(** [run ~name ~threads ~duration ?sample worker] runs [worker pid
    continue] on its own domain for each pid in [1..threads]. At every
    batch boundary a worker calls [continue n] with its completed-op
    count and stops once it returns [false]; the last [n] reported is
    what the worker contributes to [ops], so a worker that dies keeps
    the ops it completed. With [sample = (period, f)] the coordinator
    calls [f ~elapsed ~ops] (total reported ops so far) every
    [period] seconds until [duration] elapses; without it, it sleeps.
    Every worker death is printed as [[name] worker <pid> died: <exn>]. *)

val count : errors -> string -> int
(** Deaths of one kind. *)

val total : errors -> int
(** Deaths of any kind. *)

val cell_name : string -> string -> int -> string
(** [cell_name scheme structure threads] is ["scheme/structure/threads"],
    the key under which every command names a measured cell. *)

val pp_errors : Format.formatter -> errors -> unit
(** [kind×count] pairs, space-separated. *)

val status : (string * errors) list -> int
(** Exit status of a command over its [(cell, errors)] list: prints
    [cell: kind×count ...] to stderr for every cell with a worker
    death and returns 1 if there was one, else 0. *)
