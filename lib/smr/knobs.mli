(** A scheme instance's tuning knobs, fixed at [create].

    The paper tunes each scheme with constants: [epoch_freq],
    [cleanup_freq] and the announcement-slot budget. One default per
    knob is shared by every scheme, and a scheme copies the values it
    reads into its own record at [create], so an eject or an
    allocation reads a plain field.

    Validation: every [create] argument is range-checked ([<= 0] raises
    [Invalid_argument]) uniformly, including knobs a particular scheme
    ignores: passing a nonsense value is a bug even when it happens to
    be unread. *)

type t = { epoch_freq : int; cleanup_freq : int; slots_per_thread : int }

(** {2 Documented defaults}

    One default per knob, shared by {e every} scheme, so that a run is
    reproducible from its results file. The values are the paper's §5.1
    IBR/HE tuning. *)

val default_epoch_freq : int
(** Allocations between global epoch/era advances (40). *)

val default_cleanup_freq : int
(** Retires between eject scans (64). *)

val default_slots_per_thread : int
(** HP/HE/PTB announcement slots per thread, excluding the reserved
    slot (8). *)

type knob = [ `Epoch_freq | `Cleanup_freq | `Slots_per_thread ]

val create :
  ?epoch_freq:int -> ?cleanup_freq:int -> ?slots_per_thread:int -> ?reads:knob list ->
  scheme:string -> unit -> t
(** The knobs of one scheme instance, with every provided value
    validated ([<= 0] raises [Invalid_argument] naming the scheme and
    the knob). A provided knob not in [reads] (default: all three)
    counts as the scheme's [knob_ignored] misuse. The effective values
    are mirrored into the registry gauges [smr.<scheme>.knob.*], so
    [stats --json] runs are reproducible from their results files. *)
