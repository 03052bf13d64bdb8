(** Deterministic chaos campaigns (DESIGN.md §13): seeded composition
    of {!Fault_plan} rules across the shards of the KV service.

    Pure schedule synthesis — a campaign runs as a row of
    [Workload.Table], its kernel in [Workload.Chaos_runner]. A campaign
    is fully determined by its {!spec}: the same (seed, kind, shards,
    victims) tuple always compiles to the same rules, so any failing
    run replays bit-identically from the schedule its row prints
    (see {!describe}). *)

type kind =
  | Stall_storm  (** one member per victim shard stalls forever mid-operation *)
  | Rolling_crash  (** victims crash on retire, staggered across shards *)
  | Crash_during_eject  (** victims crash inside the reclamation path itself *)
  | Gray_slow  (** victims degrade (persistent [Slow]) but keep serving *)
  | Mixed  (** stall + rolling crash + gray + eject-crash, round-robin *)

val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result
val all_kinds : kind list

(** {2 Pid layout (contract with the driver)} *)

val members : int
(** Serving pids per shard; member 0 is the designated fault victim. *)

val pid_of : shard:int -> member:int -> int
(** Pid 0 is reserved for the unfaulted client/sampler. *)

val shard_of_pid : int -> int

val first_spare_pid : shards:int -> int
(** Restart generations allocated by the driver start here. *)

(** {2 Campaigns} *)

type spec = { seed : int; kind : kind; shards : int; victims : int }

val default_spec : spec

val validate_spec : spec -> unit
(** Raises [Invalid_argument] on victims outside [1, shards] or a pid
    pool past {!Fault_plan.max_pids}. *)

val rules : spec -> Fault_plan.rule list
(** Compile the campaign schedule. Deterministic in [spec]. *)

val describe : spec -> string list
(** Human-readable schedule (header + one line per rule) — what a
    driver prints so a failed campaign can be replayed. *)
