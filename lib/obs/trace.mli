(** Bounded per-domain event rings (DESIGN.md §7).

    Each pid owns a ring written only by that pid; when it wraps, the
    oldest events are overwritten — the trace is a flight recorder,
    not a log. A single global fetch-and-add sequence number gives
    export a total order without the writers otherwise
    synchronizing. *)

(** One traced event. Hot per-operation events (acquire,
    confirm-retry, retire) are sampled via {!should_sample}; rare
    events (eject, abandon, watchdog, fault, sample) keep full
    fidelity. *)
type ev =
  | Acquire of { scheme : string }
  | Confirm_retry of { scheme : string }
  | Retire of { scheme : string }
  | Eject of { scheme : string; batch : int }
  | Abandon of { scheme : string }
  | Watchdog of { scheme : string; verdict : string }
  | Fault of { site : string; action : string }
  | Sample of { t_ms : int; ops_per_s : int; live : int; backlog : int }

type entry = { seq : int; e_pid : int; ev : ev }

val enabled : unit -> bool
val set_enabled : bool -> unit

val emit : pid:int -> ev -> unit
(** Record an event in [pid]'s ring; no-op while disabled. *)

val should_sample : pid:int -> bool
(** Gate for hot call sites: true for 1 in 32 calls per ring while
    enabled, so the caller only constructs the event value after a
    [true]. *)

val reset : unit -> unit

val emitted : unit -> int
(** Total events recorded since the last {!reset}, including ones
    that have since been overwritten. *)

val entries : unit -> entry list
(** All surviving entries across all rings, in global sequence
    order. *)

val to_jsonl : unit -> string list
(** One flat JSON object per surviving entry, sequence-ordered. *)

val export_file : string -> int
(** Write {!to_jsonl} lines to [path]; returns the line count. *)
