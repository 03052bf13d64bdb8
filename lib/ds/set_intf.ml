(** Common interface of the concurrent integer-set data structures
    (Harris–Michael list, Michael hash table, Natarajan–Mittal tree),
    in both manual-SMR and reference-counted versions.

    The experiment table's set kernel ([Workload.Table]) takes any
    instance of this signature, so every workload runs unchanged over
    every (structure × scheme × manual/automatic) combination —
    mirroring the paper's evaluation matrix (§5.1).

    Each structure owns its runtime (SMR instance or RC runtime) and a
    simulated heap; [live_objects] reports the paper's memory-usage
    metric (allocated-but-unreclaimed blocks). *)

module type S = sig
  val name : string
  (** e.g. ["EBR"] or ["RCEBR"] — the reclamation scheme label. *)

  type t
  type ctx
  (** Per-thread handle; create one per worker with its pid. *)

  val create :
    ?slots_per_thread:int -> ?epoch_freq:int -> ?buckets:int -> max_threads:int -> unit -> t
  (** [buckets] is meaningful only for the hash table (default 2^16);
      the list and tree ignore it. *)

  val ctx : t -> int -> ctx

  val insert : ctx -> int -> bool
  (** [insert c k]: [true] if [k] was absent and is now present. *)

  val remove : ctx -> int -> bool
  (** [remove c k]: [true] if [k] was present and is now absent. *)

  val contains : ctx -> int -> bool

  val range_query : ctx -> int -> int -> int
  (** [range_query c lo hi]: number of keys in [\[lo, hi)], collected by
      a sequential (non-linearizable) traversal, as in the paper's
      Fig 11 workload. *)

  val flush : ctx -> unit
  (** Apply pending reclamation for this thread (between phases). *)

  val size : t -> int
  (** Sequential size; call only at quiescence. *)

  val live_objects : t -> int
  (** Allocated-but-unreclaimed node count (includes nodes awaiting
      deferred reclamation). *)

  val peak_objects : t -> int
  val reset_peak : t -> unit

  val snapshot_stats : t -> (int * int) option
  (** RC versions: (fast, slow) snapshot path counts (Fig 11's fallback
      mechanism); [None] for manual versions. *)

  val uaf_events : t -> int
  (** Use-after-free violations caught and retried (non-zero only for
      the NM tree under the unsafe schemes — paper §5.1's "occasionally
      crash" caveat). *)

  val retired_backlog : t -> int
  (** Entries retired but not yet reclaimed, summed over all threads —
      the quantity the experiment runner's sampler publishes as the
      [sampler.retired_backlog] gauge. *)

  val stalled : t -> bool
  (** Sample the structure's reclamation-progress watchdog: [true] when
      reclamation is stuck behind a pinned frontier while garbage
      accumulates. The experiment runner's sampler calls this
      periodically; the verdict text reaches [result.watchdog_verdicts]
      through [Obs.Verdicts]. *)

  val teardown : t -> unit
  (** Free every node and apply all deferred operations; afterwards
      [live_objects t = 0] unless the structure leaked. Quiescent-only. *)
end
