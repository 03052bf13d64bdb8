(* Deterministic chaos campaigns: seeded composition of Fault_plan
   rules across the shards of the KV service.

   This module is pure schedule synthesis — it lives in lib/fault so it
   can only talk Fault_plan vocabulary and stays independent of the
   serving layer; a campaign runs against a live service as a row of
   Workload.Table, its kernel in Workload.Chaos_runner. The two share
   a pid-layout contract: shard [s] is served by the pid pool
   [pid_of ~shard:s ~member:m] for [m < members], with [member 0] the
   designated fault victim and pid 0 reserved for the unfaulted
   client/sampler. Restart generations allocated by the kernel live
   above [first_spare_pid].

   Same seed, same campaign: victim selection, fire points, stall
   durations and slow factors are all drawn from one [Repro_util.Rng]
   stream, so a failed campaign replays bit-identically from the
   (seed, kind, shards, victims) tuple its row prints. *)

type kind =
  | Stall_storm  (** one member per victim shard stalls forever mid-operation *)
  | Rolling_crash  (** victims crash on retire, staggered across shards *)
  | Crash_during_eject  (** victims crash inside the reclamation path itself *)
  | Gray_slow  (** victims degrade (persistent Slow) but keep serving *)
  | Mixed  (** stall + rolling crash + gray + eject-crash, round-robin *)

let kind_name = function
  | Stall_storm -> "stall-storm"
  | Rolling_crash -> "rolling-crash"
  | Crash_during_eject -> "crash-eject"
  | Gray_slow -> "gray-slow"
  | Mixed -> "mixed"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "stall-storm" | "stall" -> Ok Stall_storm
  | "rolling-crash" | "crash" -> Ok Rolling_crash
  | "crash-eject" | "crash-during-eject" -> Ok Crash_during_eject
  | "gray-slow" | "gray" | "slow" -> Ok Gray_slow
  | "mixed" -> Ok Mixed
  | s ->
      Error
        (Printf.sprintf
           "unknown campaign %S (stall-storm | rolling-crash | crash-eject | gray-slow \
            | mixed)"
           s)

let all_kinds = [ Stall_storm; Rolling_crash; Crash_during_eject; Gray_slow; Mixed ]

(* ----------------------------- pid layout ------------------------- *)

let members = 2
let pid_of ~shard ~member = 1 + (shard * members) + member
let shard_of_pid pid = (pid - 1) / members
let first_spare_pid ~shards = 1 + (shards * members)

(* ------------------------------ campaigns ------------------------- *)

type spec = { seed : int; kind : kind; shards : int; victims : int }

let default_spec = { seed = 42; kind = Mixed; shards = 4; victims = 4 }

let validate_spec s =
  if s.shards < 1 then invalid_arg "Chaos: shards must be >= 1";
  if s.victims < 1 || s.victims > s.shards then
    invalid_arg "Chaos: victims must be in [1, shards]";
  if first_spare_pid ~shards:s.shards >= Fault_plan.max_pids then
    invalid_arg "Chaos: shard pool exceeds Fault_plan.max_pids"

(* Seeded choice of [victims] distinct shards: Fisher–Yates over the
   shard ids, take the prefix. *)
let pick_victims rng ~shards ~victims =
  let a = Array.init shards Fun.id in
  for i = shards - 1 downto 1 do
    let j = Repro_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 victims)

(* One rule against the victim member of [shard]. [i] is the victim's
   index in the campaign — rolling kinds stagger their fire points with
   it so faults land as a wave, not a single blast. *)
let rule_for rng kind ~i ~shard =
  let pid = Some (pid_of ~shard ~member:0) in
  let open Fault_plan in
  match kind with
  | Stall_storm ->
      { site = On_begin_cs; pid; at = 2 + Repro_util.Rng.int rng 6; action = Stall 0 }
  | Rolling_crash ->
      { site = On_retire; pid; at = 2 + (3 * i) + Repro_util.Rng.int rng 3; action = Crash }
  | Crash_during_eject ->
      { site = On_eject; pid; at = 1 + Repro_util.Rng.int rng 2; action = Crash }
  | Gray_slow ->
      {
        site = On_begin_cs;
        pid;
        at = 1 + Repro_util.Rng.int rng 4;
        action = Slow { factor = 2 + Repro_util.Rng.int rng 6 };
      }
  | Mixed -> assert false

let rules spec =
  validate_spec spec;
  let rng = Repro_util.Rng.create ~seed:spec.seed in
  let victims = pick_victims rng ~shards:spec.shards ~victims:spec.victims in
  List.mapi
    (fun i shard ->
      let kind =
        match spec.kind with
        | Mixed -> List.nth [ Stall_storm; Rolling_crash; Gray_slow; Crash_during_eject ] (i mod 4)
        | k -> k
      in
      rule_for rng kind ~i ~shard)
    victims

(* --------------------------- replay printing ---------------------- *)

let describe spec =
  let header =
    Printf.sprintf "campaign %s seed=%d shards=%d victims=%d" (kind_name spec.kind)
      spec.seed spec.shards spec.victims
  in
  let line (r : Fault_plan.rule) =
    let pid = match r.pid with Some p -> p | None -> -1 in
    Printf.sprintf "  shard %d pid %d: %s#%d -> %s" (shard_of_pid pid) pid
      (Format.asprintf "%a" Fault_plan.pp_site r.site)
      r.at
      (Format.asprintf "%a" Fault_plan.pp_action r.action)
  in
  header :: List.map line (rules spec)
