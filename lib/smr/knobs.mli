(** Mutable, per-instance tuning-knob block — the CONTROLLABLE surface
    of every reclamation scheme (DESIGN.md §10).

    The paper tunes each scheme with captured constants ([epoch_freq],
    [cleanup_freq], announcement-slot budgets); PR 1's robustness
    experiment showed those constants fail open under faults. This
    module replaces them with one mutable knob block per scheme
    instance that the {!Adapt} runtime controller can retune while the
    scheme runs: schemes read knobs through the accessors on every use
    (never capturing the value at [create] time), and the controller
    writes them from the other side.

    Concurrency: each knob lives in its own padded atomic cell
    ({!Padded}), so controller writes never false-share with
    scheme reads and a read is one atomic load. Knob moves are advisory
    — a scheme may complete an in-flight scan under the old value — but
    every subsequent decision sees the new one.

    Validation: all [create] arguments are range-checked ([<= 0] raises
    [Invalid_argument]) uniformly, including knobs a particular scheme
    ignores — passing a nonsense value is a bug even when it happens to
    be unread. *)

type t

(** {2 Documented defaults}

    One default per knob, shared by {e every} scheme (previously EBR
    advanced every 10 allocations while IBR/HE used 40; runs were not
    reproducible from their results files because the effective values
    were buried in per-scheme code). The values are the paper's §5.1
    IBR/HE tuning; the adaptive controller retunes them under load, so
    the static default is a starting point, not a commitment. *)

val default_epoch_freq : int
(** Allocations between global epoch/era advances (40). *)

val default_cleanup_freq : int
(** Retires between eject scans (64). *)

val default_slots_per_thread : int
(** HP/HE/PTB announcement slots per thread, excluding the reserved
    slot (8). *)

val default_batch_cap : int
(** Maximum deferred operations released per eject scan ([max_int] =
    uncapped). *)

val create :
  ?epoch_freq:int ->
  ?cleanup_freq:int ->
  ?slots_per_thread:int ->
  ?batch_cap:int ->
  scheme:string ->
  unit ->
  t
(** Build a knob block for one scheme instance, validating every
    provided value ([<= 0] raises [Invalid_argument] naming the scheme
    and the knob). Effective values are mirrored into registry gauges
    [smr.<scheme>.knob.*] so [stats --json] runs are reproducible from
    their results files. *)

val scheme : t -> string

(** {2 Accessors — the only way scheme code may read a knob}

    (rc-lint rule R7 enforces this: a scheme storing a knob in its own
    record field captures a constant the controller cannot move.) *)

val epoch_freq : t -> int
val cleanup_freq : t -> int
val batch_cap : t -> int

val sync_scan : t -> bool
(** Last-resort memory-pressure mode: when set, every [eject] call
    scans unconditionally (the amortization counter is bypassed). *)

val slots_per_thread : t -> int
(** Structural, not retunable: slot arrays are sized at [create]. *)

(** {2 Controller-side setters}

    Setters validate like [create] and update the registry gauges, so
    the reported knob values always reflect the last write. *)

val set_epoch_freq : t -> int -> unit
val set_cleanup_freq : t -> int -> unit
val set_batch_cap : t -> int -> unit
val set_sync_scan : t -> bool -> unit

type handle = {
  h_scheme : string;
  h_knobs : t;
  h_force_advance : unit -> unit;
      (** Force a global epoch/era advance (no-op for schemes without a
          clock): the memory-pressure escalation lever. *)
}
(** A first-class CONTROLLABLE capability over one scheme instance —
    what structures expose to the {!Adapt} controller without leaking
    their scheme type. *)
