(** Simulated manual heap with reclamation accounting and
    use-after-free detection.

    OCaml is garbage-collected, so this reproduction cannot literally
    [free] memory. Instead, every object managed by an SMR scheme or a
    reference-counting control block embeds a {!block} token obtained
    from {!alloc}. "Freeing" the object calls {!free} on its token,
    which:

    - counts the reclamation (live/peak statistics drive the paper's
      memory-usage figures), and
    - poisons the token, so that any later {!check_live} — which the
      data-structure code performs on every dereference — raises
      {!Use_after_free}.

    This preserves exactly the property safe memory reclamation exists
    to provide: {e no thread dereferences an object after it has been
    reclaimed}. A buggy SMR scheme here crashes the stress tests instead
    of silently corrupting memory, which is strictly better for a
    reproduction.

    A block is one atomic word packing its heap's id, its uid, a dead
    bit and a freed bit, so allocation costs one 2-word atomic and
    every other operation on a block touches that one word. The dead
    bit is the owner's lifecycle flag — a CDRC control block's
    disposal: {!mark_dead} claims it once and {!check_dead} reads it
    together with the freed bit, both through {!Sched.Atomic}. The heap
    is found again from its id through a process-wide registry that
    {!create} extends under a mutex. Every other operation is
    thread-safe and lock-free, and [free] allocates nothing. *)

type t
(** A simulated heap (one per benchmark run, usually). *)

type block
(** An allocation token. Embed it in the managed object. *)

exception Use_after_free of string
(** Raised by {!check_live} on a freed block: an SMR safety violation. *)

exception Double_free of string
(** Raised by {!free} on an already-freed block. *)

val create : ?name:string -> unit -> t
(** [create ?name ()] makes an empty heap. [name] appears in exception
    messages and reports (default ["heap"]). A heap stays registered,
    and reachable, for the life of the process.
    @raise Failure once 2{^22} heaps have been created in the process. *)

val name : t -> string

val alloc : t -> block
(** Allocate a block: takes the next uid, increments the live count and
    updates the peak.
    @raise Failure when the heap's uids (2{^39} on a 64-bit host) are
    exhausted: uids never wrap. *)

val free : block -> unit
(** Reclaim a block, dead or not: a CAS sets its freed bit, then the
    heap's live count drops. Of several frees of one block, racing or
    not, exactly one succeeds.
    @raise Double_free if the block was already freed. *)

val check_live : block -> unit
(** Assert the block has not been reclaimed.
    @raise Use_after_free if it has. *)

val mark_dead : block -> bool
(** Claim the block's dead bit with one {!Sched.Atomic.fetch_and_add}:
    [true] for the first caller. [false] means the block was already
    dead or freed; that claim gives its add back, so neither outcome
    changes the uid or the heap's counts. Of two claims, racing or not,
    exactly one succeeds; a third claim racing a loser's give-back can
    misread the word, so callers treat any failed claim as the protocol
    violation it is. *)

val check_dead : block -> bool
(** [check_live]'s assertion and the dead bit, from one
    {!Sched.Atomic.get} of the block word: [true] once {!mark_dead} has
    claimed the block.
    @raise Use_after_free if the block is freed. *)

val is_live : block -> bool
(** Non-raising liveness query (used by tests). *)

val uid : block -> int
(** Unique id of the block within its heap (diagnostics). *)

(** {1 Statistics} *)

val live : t -> int
(** Blocks currently allocated and not freed. *)

val peak : t -> int
(** High-water mark of {!live} since creation or {!reset_peak}. *)

val allocated : t -> int
(** Total blocks ever allocated: the next uid. *)

val freed : t -> int
(** Total blocks ever freed: [allocated - live], exact whenever no
    alloc or free is in flight, and never negative. *)

val reset_peak : t -> unit
(** Reset the peak to the current live count (called between benchmark
    phases so warm-up doesn't pollute measurements). *)

val pp_stats : Format.formatter -> t -> unit
(** Render ["live=… peak=… allocated=… freed=…"]. *)
