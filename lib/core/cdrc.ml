(** Concurrent deferred reference counting over any manual SMR scheme —
    the paper's core contribution (§3.4, Fig 5) extended with weak
    pointers (§4, Figs 8–9).

    {!Make} converts a manual scheme [S] (EBR, IBR, Hyaline, HP, HE)
    into an automatic reference-counting library with the paper's six
    pointer types:

    - {e strong}: [shared] / [atomic shared (Asp)] / [snapshot]
    - {e weak}: [weak] / [atomic weak (Awp)] / [weak_snapshot]

    The conversion runs on {!Acquire_retire.Make} over [S], the runtime
    the manual structures use too, and keeps one instance per runtime.
    It retires all three deferred kinds into it — strong decrements, weak
    decrements and disposals — so that reads can protect a reference
    count (or a disposal) instead of incrementing it. Fig 8 uses three
    instances because a C++ [eject] hands back a bare pointer and the
    instance says which operation to apply; a {!Smr.Deferred.t} retire
    record already carries its operation (one of three run functions
    the runtime builds once), so one instance suffices. Every
    deferred operation on a control block is retired under the identity
    that all guards on the block announce, so merging the instances
    only adds guards that hold it back: it can run later than under
    Fig 8, never earlier (DESIGN.md S8).

    OCaml-specific API shape (DESIGN.md S5/S6): pointers are linear
    values with explicit [drop] instead of destructors; atomic pointer
    CAS is logical (control-block identity + mark bit) implemented with
    a retry loop over a slot, which is the control block itself or, for a
    tagged pointer, a box. A control block is one record: the value sits
    inline beside the counts and the heap block, whose one word also
    carries the disposed bit ({!Rc_cell}), so a dereference reads one
    word and reaches the object in one hop. All racy accesses and
    snapshot lifetimes must happen inside a critical section
    ({!Make.critically}), exactly as §3.4 requires for region schemes. *)

module Make (S : Smr.Smr_intf.S) = struct
  let scheme_name = "RC" ^ S.name

  (* The acquire–retire runtime under the RC runtime's name, so that
     over HP its watchdog counts under ar.rchp.watchdog. *)
  module Ar = Acquire_retire.Make (struct
    include S

    let name = scheme_name
  end)

  (* The control-block lifecycle steps over the block's atomics; the
     schedule explorer drives the same module. *)
  module Cell = Rc_cell
  module Ident = Smr.Ident

  (* Registry mirrors of this runtime's counters. The per-pid
     [fast]/[slow] fields of [books] below stay authoritative for
     [snapshot_stats] (they are unconditional and per-instance); the
     registry copies are the globally-collected view the [stats] CLI
     reports, and like all telemetry they only move when enabled. *)
  let mprefix = "cdrc." ^ String.lowercase_ascii scheme_name ^ "."
  let snap_fast_c = Obs.Metrics.counter (mprefix ^ "snapshot.fast")
  let snap_slow_c = Obs.Metrics.counter (mprefix ^ "snapshot.slow")
  let dec_deferred_c = Obs.Metrics.counter (mprefix ^ "decrement.deferred")
  let weak_dec_deferred_c = Obs.Metrics.counter (mprefix ^ "weak_decrement.deferred")
  let dispose_deferred_c = Obs.Metrics.counter (mprefix ^ "dispose.deferred")

  (* The subset of [decrement.deferred] that a running record's destroy
     hook retires rather than an operation: it moves with reclamation
     cadence, the rest does not. *)
  let dec_cascade_c = Obs.Metrics.counter (mprefix ^ "decrement.deferred.cascade")

  (* Where the scheme's confirm is trivial, the section protects every
     read and its acquire returns the constant guard 0: it is made only
     so that [smr.<s>.acquire] counts it, so it is made only while a
     flag that count reads is set (DESIGN.md §7). *)
  let[@inline] count_acquire (ar : Ar.t) ~pid =
    if Obs.Metrics.enabled () || Obs.Trace.enabled () then
      ignore (S.try_acquire ar.Ar.smr ~pid Ident.null)

  exception Use_after_drop of string
  (** Raised when a dropped (or moved-from) pointer is used again —
      the analogue of C++ use-after-destructor UB, made loud. *)

  (* ------------------------------------------------------------------ *)
  (* Control blocks and the runtime *)

  (* Slots: the value stored in atomic shared/weak pointer cells.
     Logical CAS compares control-block identity plus the mark bit;
     marks are first-class because the paper's benchmarks all need
     marked pointers (§5.1).

     Tags are 2-bit integers packed next to the pointer, exactly like
     the low pointer bits C++ implementations steal: bit 0 is the
     Harris "mark", bit 1 the Natarajan–Mittal "tag"/"flag" second bit.

     A control block is the [Cb] constructor's inline record, so an
     untagged pointer to it is the block itself: a cell holds it with
     no box between, and taking a view of an owned pointer allocates
     nothing. [block]'s word is the block's lifecycle: its dead bit is
     the disposed flag, its freed bit the free. [destroy] is the user's
     hook as given (or the shared [no_destroy]), called with the
     executing pid's preallocated [thr]. Only a tagged pointer is boxed,
     as [Tagged]. *)
  type 'a slot =
    | Null
    | Null_tagged of int (* tag in 1..3 *)
    | Cb of {
        value : 'a;
        strong : Cell.counter;
        weak : Cell.counter;
        birth : int;
        block : Simheap.block;
        destroy : thr -> 'a -> unit;
      }
    | Tagged of 'a control_block * int (* tag in 1..3 *)

  (* A slot that is a [Cb]. *)
  and 'a control_block = 'a slot

  (* The control block of a counted snapshot, of any element type, as a
     pid's books keep it: mostly an old block, so that recording it
     seldom adds to the minor heap's remembered set. *)
  and counted = Counted : 'a control_block -> counted [@@unboxed]

  (* A pid's snapshot books, written by the owner only. [fast]/[slow]
     count the snapshots taken on the guard and the count-increment
     path — the mechanism behind the paper's Fig 11 — as plain ints:
     they are statistics, not protocol atomics, and the sums
     [snapshot_stats] reads are exact once the workers have joined.
     [counted.(0 .. n_counted - 1)] hold one entry per counted snapshot
     the pid has not dropped: the control block whose count it holds,
     given back at the pid's section exit. [section] numbers the pid's
     sections and their gaps: each entry and each exit bumps it, so it
     is odd exactly while the pid's section is open, and a snapshot
     carries the number of the section that took it. The [pad_*]
     fields give the record a cache line of its own. *)
  and books = {
    mutable fast : int;
    mutable slow : int;
    mutable counted : counted array;
    mutable n_counted : int;
    pad_0 : int;
    pad_1 : int;
    pad_2 : int;
    pad_3 : int;
    pad_4 : int;
    pad_5 : int;
    mutable section : int;
  }

  (* [thrs] holds each pid's one [thr], set once by [create]: what
     [thread] returns and what a destroy hook is called with. [runs]
     holds the runtime's three deferred operations, also set once by
     [create]. *)
  and rt = {
    ar : Ar.t; (* the one acquire–retire instance *)
    support_weak : bool;
    books : books array; (* per pid *)
    mutable thrs : thr array;
    mutable runs : runs;
  }

  (* The run functions of the runtime's retire records, one closure each
     over the runtime, built once: a record applies one of them to its
     control block as the executing pid, so a retire allocates the
     record alone. *)
  and runs = {
    run_decrement : 'a. int -> 'a control_block -> unit;
    run_weak_decrement : 'a. int -> 'a control_block -> unit;
    run_dispose : 'a. int -> 'a control_block -> unit;
  }

  (* [pid_books] and [scope] are the pid's books and its protection state
     in the runtime's acquire–retire instance, which its snapshots
     protect through. *)
  and thr = { rt : rt; pid : int; pid_books : books; scope : Ar.scope_state }

  (* A snapshot (strong or weak) is the slot it read from its cell,
     shared with the cell rather than copied, plus what keeps the object
     alive: the section that took it (under a region scheme, whose
     section protects every read it makes), a guard, or a count (the
     slow path). [n_guard] is [Ar.no_guard] for a null snapshot, which
     keeps nothing alive; otherwise it is {!stamp}ed with the section.
     Four words, one block. *)
  type 'a snapshot = { n_slot : 'a slot; n_guard : S.guard; mutable n_live : bool }

  (* A non-null snapshot's [n_guard] is [section lsl stamp_shift lor g]:
     [g] is the guard it holds ([counted] for a counted snapshot, and
     any guard for a region scheme's, which holds none), and [section]
     the pid's section that took it. A guard is a pid-local slot
     index, at most [Sys.int_size - 1] = 62 ([Acquire_retire.create]
     caps the slots), so no guard is [counted]. [drop] checks the stamp, so a snapshot that escaped its
     section cannot release a guard, or give back a count, that a
     later section's snapshot holds. *)
  let stamp_shift = 6
  let guard_mask = (1 lsl stamp_shift) - 1
  let counted = guard_mask
  let stamp b g = (b.section lsl stamp_shift) lor g

  type 'a weak_snapshot = 'a snapshot

  let heap rt = Ar.heap rt.ar
  let max_threads rt = Ar.max_threads rt.ar

  let thread rt pid =
    if pid < 0 || pid >= max_threads rt then invalid_arg "Cdrc.thread: pid out of range";
    rt.thrs.(pid)

  (* ------------------------------------------------------------------ *)
  (* Reference-count primitives (Fig 8) *)

  let not_a_cb () = invalid_arg "Cdrc: not a control block"
  let strong_of = function Cb c -> c.strong | Null | Null_tagged _ | Tagged _ -> not_a_cb ()
  let weak_of = function Cb c -> c.weak | Null | Null_tagged _ | Tagged _ -> not_a_cb ()

  (* The control block [p] points to, [Null] for a null pointer. *)
  let target = function Null | Null_tagged _ -> Null | Tagged (cb, _) -> cb | Cb _ as cb -> cb

  let expired cb = Cell.expired (strong_of cb)

  let must_increment cb =
    if not (Cell.try_upgrade (strong_of cb)) then
      failwith "Cdrc: invariant violated: increment of a dead strong count"

  let weak_increment cb =
    if not (Cell.weak_increment_if_not_zero (weak_of cb)) then
      failwith "Cdrc: invariant violated: increment of a dead weak count"

  let free_cb = function
    | Cb c -> Simheap.free c.block
    | Null | Null_tagged _ | Tagged _ -> not_a_cb ()

  (* Defer [run] on [cb] until no guard taken before this call protects
     it, counting it under its kind's [counter], then eject: all three
     kinds share the one instance [ar], whose queue runs a slice of what
     the scans released before this returns (from inside a deferred op,
     it only queues) and keeps the rest for the pid's next eject. The
     retire record, named by the block's identity, is the only
     allocation. *)
  let delayed rt ~pid counter cb run =
    Obs.Metrics.incr counter ~pid;
    let birth = match cb with Cb c -> c.birth | Null | Null_tagged _ | Tagged _ -> not_a_cb () in
    Ar.retire rt.ar ~pid (Smr.Deferred.make ~id:(Ident.of_val cb) ~birth run cb);
    Ar.eject rt.ar ~pid

  let rec decrement rt ~pid cb =
    if Cell.strong_decrement (strong_of cb) then
      if rt.support_weak then delayed rt ~pid dispose_deferred_c cb rt.runs.run_dispose
      else
        (* Strong-only mode: no weak snapshot can observe the object, so
           dispose as soon as the count dies — via the queue, so that a
           destroy hook dropping a long chain cannot overflow the stack,
           but ahead of anything an eject left there, so that the object
           is gone before the outermost [drop] returns. *)
        Ar.run rt.ar ~pid (Smr.Deferred.make ~id:Ident.null ~birth:0 rt.runs.run_dispose cb)

  and dispose rt ~pid cb =
    (match cb with
    | Cb c ->
        if not (Cell.dispose_once c.block) then
          failwith "Cdrc: invariant violated: double dispose";
        c.destroy rt.thrs.(pid) c.value
    | Null | Null_tagged _ | Tagged _ -> not_a_cb ());
    weak_decrement rt ~pid cb

  and weak_decrement _rt ~pid:_ cb = if Cell.weak_decrement (weak_of cb) then free_cb cb

  (* A pid's queue is draining exactly while one of its records runs, so
     a decrement retired then comes from that record's destroy hook. *)
  let delayed_decrement rt ~pid cb =
    if Obs.Metrics.enabled () && rt.ar.Ar.draining.(pid) then Obs.Metrics.incr dec_cascade_c ~pid;
    delayed rt ~pid dec_deferred_c cb rt.runs.run_decrement

  let delayed_weak_decrement rt ~pid cb =
    delayed rt ~pid weak_dec_deferred_c cb rt.runs.run_weak_decrement

  let no_run _pid _cb = invalid_arg "Cdrc: runtime not initialized"
  let no_runs = { run_decrement = no_run; run_weak_decrement = no_run; run_dispose = no_run }

  let create ?(support_weak = true) ?epoch_freq ?cleanup_freq ?slots_per_thread
      ~max_threads () =
    let rt =
      {
        ar = Ar.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads ();
        support_weak;
        books =
          Array.init max_threads (fun _ ->
              {
                fast = 0;
                slow = 0;
                counted = [||];
                n_counted = 0;
                pad_0 = 0;
                pad_1 = 0;
                pad_2 = 0;
                pad_3 = 0;
                pad_4 = 0;
                pad_5 = 0;
                section = 0;
              });
        thrs = [||];
        runs = no_runs;
      }
    in
    rt.thrs <-
      Array.init max_threads (fun pid ->
          { rt; pid; pid_books = rt.books.(pid); scope = rt.ar.Ar.scopes.(pid) });
    rt.runs <-
      {
        run_decrement = (fun pid cb -> decrement rt ~pid cb);
        run_weak_decrement = (fun pid cb -> weak_decrement rt ~pid cb);
        run_dispose = (fun pid cb -> dispose rt ~pid cb);
      };
    rt

  (* ------------------------------------------------------------------ *)
  (* Pointer views and logical CAS *)

  type 'a ptr = 'a slot
  (** A non-owning view of a pointer value: what atomic cells hold and
      what CAS compares. Obtain views from owned pointers ([Shared.ptr],
      [Snapshot.ptr], …); a view is valid only while its backing owner
      is live. *)

  let slot_ident = function
    | Null | Null_tagged _ -> Ident.null
    | (Cb _ as cb) | Tagged (cb, _) -> Ident.of_val cb

  let slot_tag = function Null | Cb _ -> 0 | Null_tagged g | Tagged (_, g) -> g

  let slot_eq a b =
    match (a, b) with
    | Null, Null -> true
    | Null_tagged g, Null_tagged h -> g = h
    | Cb _, Cb _ -> a == b
    | Tagged (x, g), Tagged (y, h) -> x == y && g = h
    | _ -> false

  module Ptr = struct
    type 'a t = 'a ptr

    let null : 'a t = Null
    let is_null = function Null | Null_tagged _ -> true | Cb _ | Tagged _ -> false
    let tag = slot_tag
    let is_marked p = slot_tag p land 1 <> 0

    let with_tag (p : 'a t) g : 'a t =
      if g < 0 || g > 3 then invalid_arg "Ptr.with_tag: tag must be in 0..3";
      match (p, g) with
      | (Null | Null_tagged _), 0 -> Null
      | (Null | Null_tagged _), g -> Null_tagged g
      | ((Cb _ as cb) | Tagged (cb, _)), 0 -> cb
      | ((Cb _ as cb) | Tagged (cb, _)), g -> Tagged (cb, g)

    let with_mark (p : 'a t) m : 'a t =
      with_tag p (if m then slot_tag p lor 1 else slot_tag p land lnot 1)

    let equal = slot_eq

    let same_object a b = target a == target b

    (** Logical value read (unprotected!): only for diagnostics,
        quiescent inspection, and values the caller knows are pinned. *)
    let strong_count p = match target p with Null -> 0 | cb -> Cell.count (strong_of cb)
  end

  (* Logical CAS over a slot cell: succeed iff the current slot equals
     [expected] (cb identity + mark). Physical CAS failure against a
     logically-equal but re-boxed slot retries (DESIGN.md S5). *)
  let rec slot_cas (loc : 'a slot Sched.Atomic.t) expected desired =
    let cur = Sched.Atomic.get loc in
    if not (slot_eq cur expected) then false
    else if Sched.Atomic.compare_and_set loc cur desired then true
    else slot_cas loc expected desired

  (* ------------------------------------------------------------------ *)
  (* Critical sections (§3.4) *)

  (* [body x], then [cleanup t x] on every exit, normal or exceptional.
     Unlike [Fun.protect], it allocates no closure of its own, and an
     exception raised by [cleanup] propagates as itself. *)
  let finally (t : thr) cleanup x body =
    match body x with
    | r ->
        cleanup t x;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        cleanup t x;
        Printexc.raise_with_backtrace e bt

  (* Record the count a counted snapshot of [cb] holds in the pid's
     books. Only the slow path comes here, so growing the table may
     allocate. Entries past [n_counted] are stale and never read. *)
  let count_in (t : thr) cb =
    let b = t.pid_books in
    if b.n_counted = Array.length b.counted then begin
      let bigger = Array.make (max 8 (2 * b.n_counted)) (Counted cb) in
      Array.blit b.counted 0 bigger 0 b.n_counted;
      b.counted <- bigger
    end;
    b.counted.(b.n_counted) <- Counted cb;
    b.n_counted <- b.n_counted + 1

  (* Strike one entry for the control block [id] from [b], searching
     down from entry [i]; [false] when there is none. *)
  let rec count_out b id i =
    if i < 0 then false
    else
      let (Counted cb) = b.counted.(i) in
      if Ident.equal (Ident.of_val cb) id then begin
        let last = b.n_counted - 1 in
        b.counted.(i) <- b.counted.(last);
        b.n_counted <- last;
        true
      end
      else count_out b id (i - 1)

  (* Section exit: number the gap after the section, even, so that no
     snapshot of the section drops after it, close the section, which
     releases every guard its snapshots still hold, then give back the
     counts its counted snapshots still hold. The books shrink before
     each decrement, so one that raises gives back no count twice and
     leaves the rest for the pid's next exit. *)
  let leave (t : thr) =
    let b = t.pid_books in
    b.section <- (b.section lor 1) + 1;
    Ar.close_section t.rt.ar ~pid:t.pid;
    while b.n_counted > 0 do
      let i = b.n_counted - 1 in
      let (Counted cb) = b.counted.(i) in
      b.n_counted <- i;
      decrement t.rt ~pid:t.pid cb
    done

  (* The two halves of [critically], kept for perfbench's primitive
     probes, which time single calls inside one open section. *)
  let begin_critical_section (t : thr) =
    Ar.open_section t.rt.ar ~pid:t.pid;
    t.pid_books.section <- t.pid_books.section + 1
  let end_critical_section = leave

  (** [critically t f a b] runs [f a b] in the pid's critical section,
      which owns the pid's snapshots: on every exit, normal or
      exceptional, it releases the guards they still hold, gives back
      their counts and closes the section. A top-level [f] of the
      operation's context [a] and input [b] makes the section allocate
      nothing. Sections do not nest: [Invalid_argument] for a pid whose
      section is open. *)
  let critically (t : thr) f a b =
    begin_critical_section t;
    match f a b with
    | r ->
        leave t;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        leave t;
        Printexc.raise_with_backtrace e bt

  (* A read takes its guard, or leans on the section, only inside the
     pid's section: outside it nothing would protect the read, nor
     release what it took. One plain read of the books' section
     number, odd while the section is open. *)
  let[@inline never] section_closed what =
    invalid_arg (what ^ ": the thread's critical section is closed")

  let[@inline] check_section (t : thr) what =
    if t.pid_books.section land 1 = 0 then section_closed what

  (* ------------------------------------------------------------------ *)
  (* Owned pointer types *)

  (* An owned pointer holds a control block, or [Null]. *)
  type 'a shared = { mutable s_cb : 'a control_block; mutable s_live : bool }
  type 'a weak = { mutable w_cb : 'a control_block; mutable w_live : bool }
  (* An atomic pointer cell is its atomic: no wrapper block. *)
  type 'a asp = { asp : 'a slot Sched.Atomic.t } [@@unboxed]
  type 'a awp = { awp : 'a slot Sched.Atomic.t } [@@unboxed]

  let check_owner live what = if not live then raise (Use_after_drop what)
  let no_destroy _ _ = ()

  (* The value behind control block [cb], after one read of its heap
     word: freed raises [Use_after_free], disposed breaks the invariant
     that [what] (the pointer kind) names. *)
  let value_of what cb =
    match cb with
    | Cb c ->
        if Cell.disposed c.block then
          failwith ("Cdrc: invariant violated: " ^ what ^ " deref of disposed object");
        c.value
    | Null | Null_tagged _ | Tagged _ -> not_a_cb ()

  (* An owned pointer to [p]'s object, taking a strong or a weak count
     on it: what a copy, a snapshot's upgrade and a load return. *)
  let counted_shared = function
    | Null | Null_tagged _ -> { s_cb = Null; s_live = true }
    | (Cb _ as cb) | Tagged (cb, _) ->
        must_increment cb;
        { s_cb = cb; s_live = true }

  let counted_weak = function
    | Null | Null_tagged _ -> { w_cb = Null; w_live = true }
    | (Cb _ as cb) | Tagged (cb, _) ->
        weak_increment cb;
        { w_cb = cb; w_live = true }

  (* ------------------------------------------------------------------ *)

  module Shared = struct
    type 'a t = 'a shared

    let null () : 'a t = { s_cb = Null; s_live = true }

    (* The birth hook runs before the heap allocation, as in [Ar.alloc]:
       a hook that raises leaves no block behind. *)
    let make (t : thr) ?(destroy = no_destroy) v : 'a t =
      let rt = t.rt in
      let birth = Ar.birth rt.ar ~pid:t.pid in
      let block = Simheap.alloc (heap rt) in
      let strong = Cell.one () and weak = Cell.one () in
      { s_cb = Cb { value = v; strong; weak; birth; block; destroy }; s_live = true }

    let is_null (p : 'a t) =
      check_owner p.s_live "shared";
      p.s_cb == Null

    let get (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with
      | Null -> invalid_arg "Shared.get: null pointer"
      | cb -> value_of "strong" cb

    let ptr (p : 'a t) : 'a ptr =
      check_owner p.s_live "shared";
      p.s_cb

    let copy (t : thr) (p : 'a t) : 'a t =
      ignore t;
      check_owner p.s_live "shared";
      counted_shared p.s_cb

    let drop (t : thr) (p : 'a t) =
      check_owner p.s_live "shared";
      p.s_live <- false;
      match p.s_cb with
      | Null -> ()
      | cb ->
          p.s_cb <- Null;
          decrement t.rt ~pid:t.pid cb

    let use_count (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with Null -> 0 | cb -> Cell.count (strong_of cb)

    let weak_count (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with Null -> 0 | cb -> Cell.count (weak_of cb)

    let equal (a : 'a t) (b : 'a t) =
      check_owner a.s_live "shared";
      check_owner b.s_live "shared";
      a.s_cb == b.s_cb

    (** Scoped allocation: the pointer is dropped when [f] returns or
        raises (the OCaml stand-in for C++ scope-bound destruction,
        DESIGN.md S6). *)
    let scoped (t : thr) ?destroy v f =
      finally t drop (make t ?destroy v) f
  end

  (* The accessors strong and weak snapshots share: both are a slot
     read from a cell plus the guard or count that keeps its object
     from being disposed. Every accessor checks ownership first. *)
  module Snap (N : sig
    val what : string (* [Use_after_drop]'s payload *)
    val name : string (* the module, for [invalid_arg] *)
  end) =
  struct
    let null () : 'a snapshot = { n_slot = Null; n_guard = Ar.no_guard; n_live = true }

    let is_null p =
      check_owner p.n_live N.what;
      match p.n_slot with Null | Null_tagged _ -> true | Cb _ | Tagged _ -> false

    let is_marked p =
      check_owner p.n_live N.what;
      slot_tag p.n_slot land 1 <> 0

    let tag p =
      check_owner p.n_live N.what;
      slot_tag p.n_slot

    let get p =
      check_owner p.n_live N.what;
      match p.n_slot with
      | Null | Null_tagged _ -> invalid_arg (N.name ^ ".get: null snapshot")
      | (Cb _ as cb) | Tagged (cb, _) -> value_of N.what cb

    let ptr ?tag p : 'a ptr =
      check_owner p.n_live N.what;
      match tag with None -> p.n_slot | Some g -> Ptr.with_tag p.n_slot g

    (* Fig 5 snapshot_ptr::release, Fig 9 weak_snapshot_ptr::release. A
       snapshot of an earlier section raises: that section's exit
       released its guard or gave back its count. A region scheme's
       snapshot holds neither, so its drop releases nothing. *)
    let drop (t : thr) p =
      check_owner p.n_live N.what;
      p.n_live <- false;
      let g = p.n_guard in
      if g <> Ar.no_guard then begin
        let b = t.pid_books in
        if g lsr stamp_shift <> b.section then raise (Use_after_drop N.what);
        let g = g land guard_mask in
        if g = counted then begin
          let cb = target p.n_slot in
          if not (count_out b (Ident.of_val cb) (b.n_counted - 1)) then
            raise (Use_after_drop N.what);
          decrement t.rt ~pid:t.pid cb
        end
        else if not S.confirm_is_trivial then Ar.release_slot t.scope g
      end

    let is_protected p =
      check_owner p.n_live N.what;
      p.n_guard <> Ar.no_guard && p.n_guard land guard_mask <> counted
  end

  module Snapshot = struct
    type 'a t = 'a snapshot

    include Snap (struct
      let what = "snapshot"
      let name = "Snapshot"
    end)

    (** Upgrade to an owning shared pointer (the snapshot stays live). *)
    let to_shared (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.n_live "snapshot";
      counted_shared p.n_slot

    let use_count (p : 'a t) =
      check_owner p.n_live "snapshot";
      match p.n_slot with
      | Null | Null_tagged _ -> 0
      | (Cb _ as cb) | Tagged (cb, _) -> Cell.count (strong_of cb)
  end

  module Asp = struct
    type 'a t = 'a asp

    let make_null () : 'a t = { asp = Sched.Atomic.make Null }

    (** Initialize a cell from an owned view, taking a count unit. *)
    let make (t : thr) (v : 'a ptr) : 'a t =
      ignore t;
      (match target v with Null -> () | cb -> must_increment cb);
      { asp = Sched.Atomic.make v }

    (** Unprotected read of the current logical value. Only safe for
        diagnostics or quiescent inspection. *)
    let unsafe_ptr (c : 'a t) : 'a ptr = Sched.Atomic.get c.asp

    (* Fig 8 load_and_increment. Under a region scheme the section
       protects the read: one load, no guard held, and the acquire only
       counted ([count_acquire]); otherwise the reserved slot protects
       it until the count is taken. *)
    let load (t : thr) (c : 'a t) : 'a shared =
      check_section t "Asp.load";
      let ar = t.rt.ar and pid = t.pid in
      if S.confirm_is_trivial then begin
        count_acquire ar ~pid;
        counted_shared (Sched.Atomic.get c.asp)
      end
      else begin
        let s = t.scope in
        let res =
          counted_shared (Ar.acquire_reserved s ~ident:slot_ident c.asp)
        in
        Ar.release_slot s s.Ar.last;
        res
      end

    let store (t : thr) (c : 'a t) (desired : 'a ptr) =
      (match target desired with Null -> () | cb -> must_increment cb);
      let old = Sched.Atomic.exchange c.asp desired in
      match target old with Null -> () | cb -> delayed_decrement t.rt ~pid:t.pid cb

    (** Logical CAS. [desired] must be backed by an owned reference the
        caller holds across the call (shared, snapshot, or the null
        view); on success the cell takes a new count unit on [desired]
        and releases (deferred) its unit on [expected]. *)
    let compare_and_swap (t : thr) (c : 'a t) ~(expected : 'a ptr) ~(desired : 'a ptr) =
      (match target desired with Null -> () | cb -> must_increment cb);
      if slot_cas c.asp expected desired then begin
        (match target expected with Null -> () | cb -> delayed_decrement t.rt ~pid:t.pid cb);
        true
      end
      else begin
        (match target desired with Null -> () | cb -> decrement t.rt ~pid:t.pid cb);
        false
      end

    (** Attempt to set the mark bit on the current value if it equals
        [expected] unmarked — the pointer-tagging idiom of Harris-style
        structures, provided natively so data structures need no extra
        count traffic. *)
    let try_mark (t : thr) (c : 'a t) ~(expected : 'a ptr) =
      ignore t;
      slot_cas c.asp (Ptr.with_mark expected false) (Ptr.with_mark expected true)

    (* Fig 5 get_snapshot. Under a region scheme the section protects
       the read, as §3.4 has it: one load, and the acquire only counted
       ([count_acquire]). Over a slot scheme a snapshot is one runtime
       call on a fresh slot ([Ar.acquire_fresh]); the counted fallback
       adds one on the reserved slot ([Ar.acquire_reserved]). *)
    let get_snapshot (t : thr) (c : 'a t) : 'a snapshot =
      check_section t "Asp.get_snapshot";
      let ar = t.rt.ar and pid = t.pid in
      let b = t.pid_books in
      if S.confirm_is_trivial then begin
        count_acquire ar ~pid;
        let v = Sched.Atomic.get c.asp in
        b.fast <- b.fast + 1;
        Obs.Metrics.incr snap_fast_c ~pid;
        match v with
        | Cb _ | Tagged _ -> { n_slot = v; n_guard = stamp b 0; n_live = true }
        | Null | Null_tagged _ -> { n_slot = v; n_guard = Ar.no_guard; n_live = true }
      end
      else begin
        let s = t.scope in
        let v = Ar.acquire_fresh s ~ident:slot_ident c.asp in
        let g = s.Ar.last in
        if g <> Ar.no_guard then begin
          b.fast <- b.fast + 1;
          Obs.Metrics.incr snap_fast_c ~pid;
          match v with
          | Cb _ | Tagged _ -> { n_slot = v; n_guard = stamp b g; n_live = true }
          | Null | Null_tagged _ ->
              Ar.release_slot s g;
              { n_slot = v; n_guard = Ar.no_guard; n_live = true }
        end
        else begin
          (* Slow path: protect with the reserved slot, take a real
             count, release the slot (Fig 5 lines 8–11). *)
          b.slow <- b.slow + 1;
          Obs.Metrics.incr snap_slow_c ~pid;
          let v = Ar.acquire_reserved s ~ident:slot_ident c.asp in
          let g = s.Ar.last in
          match v with
          | Null | Null_tagged _ ->
              Ar.release_slot s g;
              { n_slot = v; n_guard = Ar.no_guard; n_live = true }
          | (Cb _ as cb) | Tagged (cb, _) ->
              must_increment cb;
              Ar.release_slot s g;
              count_in t cb;
              { n_slot = v; n_guard = stamp b counted; n_live = true }
        end
      end

    (** Scoped snapshot: dropped when [f] returns or raises. *)
    let with_snapshot (t : thr) (c : 'a t) f = finally t Snapshot.drop (get_snapshot t c) f

    (** Release the cell's count unit (node teardown in destroy hooks). *)
    let clear (t : thr) (c : 'a t) =
      let old = Sched.Atomic.exchange c.asp Null in
      match target old with Null -> () | cb -> delayed_decrement t.rt ~pid:t.pid cb
  end

  (* ------------------------------------------------------------------ *)
  (* Weak side (§4, Fig 9) *)

  let require_weak rt =
    if not rt.support_weak then
      invalid_arg "Cdrc: weak pointers need a runtime created with ~support_weak:true"

  module Weak = struct
    type 'a t = 'a weak

    let null () : 'a t = { w_cb = Null; w_live = true }

    let of_shared (t : thr) (p : 'a shared) : 'a t =
      require_weak t.rt;
      check_owner p.s_live "shared";
      counted_weak p.s_cb

    let of_snapshot (t : thr) (p : 'a snapshot) : 'a t =
      require_weak t.rt;
      check_owner p.n_live "snapshot";
      counted_weak p.n_slot

    let is_null (p : 'a t) =
      check_owner p.w_live "weak";
      p.w_cb == Null

    let expired (p : 'a t) =
      check_owner p.w_live "weak";
      match p.w_cb with Null -> true | cb -> expired cb

    let ptr (p : 'a t) : 'a ptr =
      check_owner p.w_live "weak";
      p.w_cb

    (** Upgrade ("lock"): returns a null shared pointer if the object
        has expired. The sticky counter makes this a single
        increment-if-not-zero — no CAS loop (§4.3). *)
    let lock (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.w_live "weak";
      match p.w_cb with
      | Null -> Shared.null ()
      | cb -> if Cell.try_upgrade (strong_of cb) then { s_cb = cb; s_live = true } else Shared.null ()

    let copy (t : thr) (p : 'a t) : 'a t =
      ignore t;
      check_owner p.w_live "weak";
      counted_weak p.w_cb

    let drop (t : thr) (p : 'a t) =
      check_owner p.w_live "weak";
      p.w_live <- false;
      match p.w_cb with
      | Null -> ()
      | cb ->
          p.w_cb <- Null;
          weak_decrement t.rt ~pid:t.pid cb

    let weak_count (p : 'a t) =
      check_owner p.w_live "weak";
      match p.w_cb with Null -> 0 | cb -> Cell.count (weak_of cb)
  end

  module Weak_snapshot = struct
    type 'a t = 'a weak_snapshot

    include Snap (struct
      let what = "weak_snapshot"
      let name = "Weak_snapshot"
    end)

    (** Upgrade to a shared pointer; null if the object expired. *)
    let to_shared (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.n_live "weak_snapshot";
      match p.n_slot with
      | Null | Null_tagged _ -> Shared.null ()
      | (Cb _ as cb) | Tagged (cb, _) ->
          if Cell.try_upgrade (strong_of cb) then { s_cb = cb; s_live = true }
          else Shared.null ()
  end

  module Awp = struct
    type 'a t = 'a awp

    let make_null () : 'a t =
      { awp = Sched.Atomic.make Null }

    let make (t : thr) (v : 'a ptr) : 'a t =
      require_weak t.rt;
      (match target v with Null -> () | cb -> weak_increment cb);
      { awp = Sched.Atomic.make v }

    let unsafe_ptr (c : 'a t) : 'a ptr = Sched.Atomic.get c.awp

    (* Fig 9 store: weak-increment desired, exchange, deferred
       weak-decrement of the old value. *)
    let store (t : thr) (c : 'a t) (desired : 'a ptr) =
      require_weak t.rt;
      (match target desired with Null -> () | cb -> weak_increment cb);
      let old = Sched.Atomic.exchange c.awp desired in
      match target old with Null -> () | cb -> delayed_weak_decrement t.rt ~pid:t.pid cb

    (* Fig 9 load; under a region scheme, one load, as [Asp.load]. *)
    let load (t : thr) (c : 'a t) : 'a weak =
      require_weak t.rt;
      check_section t "Awp.load";
      let ar = t.rt.ar and pid = t.pid in
      if S.confirm_is_trivial then begin
        count_acquire ar ~pid;
        counted_weak (Sched.Atomic.get c.awp)
      end
      else begin
        let s = t.scope in
        let res =
          counted_weak (Ar.acquire_reserved s ~ident:slot_ident c.awp)
        in
        Ar.release_slot s s.Ar.last;
        res
      end

    (* Fig 9 compare_and_swap. [desired] must be backed by an owned
       weak-counted reference (weak, shared, or weak_snapshot) held by
       the caller across the call; OCaml's value semantics make the
       paper's clobbered-desired race inexpressible (DESIGN.md), so the
       guard on desired's location is unnecessary. *)
    let compare_and_swap (t : thr) (c : 'a t) ~(expected : 'a ptr) ~(desired : 'a ptr) =
      require_weak t.rt;
      (match target desired with Null -> () | cb -> weak_increment cb);
      if slot_cas c.awp expected desired then begin
        (match target expected with
        | Null -> ()
        | cb -> delayed_weak_decrement t.rt ~pid:t.pid cb);
        true
      end
      else begin
        (match target desired with Null -> () | cb -> weak_decrement t.rt ~pid:t.pid cb);
        false
      end

    (* Fig 9 get_snapshot, retried at the top level: a local [retry]
       closure would cost a heap block per snapshot. Under a region
       scheme the section protects both the read and the disposal: one
       load and a liveness check, and the two acquires only counted
       ([count_acquire]). *)
    let rec weak_snapshot (t : thr) (c : 'a t) : 'a weak_snapshot =
      let ar = t.rt.ar and pid = t.pid in
      if S.confirm_is_trivial then begin
        count_acquire ar ~pid;
        let v = Sched.Atomic.get c.awp in
        match v with
        | Null | Null_tagged _ -> { n_slot = v; n_guard = Ar.no_guard; n_live = true }
        | (Cb _ as cb) | Tagged (cb, _) -> (
            count_acquire ar ~pid;
            if not (expired cb) then
              { n_slot = v; n_guard = stamp t.pid_books 0; n_live = true }
            else expired_snapshot t c v)
      end
      else begin
        let s = t.scope in
        let v = Ar.acquire_reserved s ~ident:slot_ident c.awp in
        let wg = s.Ar.last in
        match v with
        | Null | Null_tagged _ ->
            Ar.release_slot s wg;
            { n_slot = v; n_guard = Ar.no_guard; n_live = true }
        | (Cb _ as cb) | Tagged (cb, _) ->
            (* Protect [cb]'s disposal with a fresh guard on [v], which
               [wg] already protects. For IBR/HE the dispose-side
               interval must be re-stabilized before trusting the
               liveness read; HP and PTB confirm [v] at once. *)
            Ar.acquire_seen s ~ident:slot_ident c.awp v;
            let dg = s.Ar.last in
            let alive =
              if dg <> Ar.no_guard then not (expired cb)
              else
                (* Fig 9 line 26: out of dispose guards — fall back to
                   a real strong increment if the object is alive. *)
                Cell.try_upgrade (strong_of cb)
            in
            if alive then begin
              Ar.release_slot s wg;
              let b = t.pid_books in
              if dg = Ar.no_guard then begin
                count_in t cb;
                { n_slot = v; n_guard = stamp b counted; n_live = true }
              end
              else { n_slot = v; n_guard = stamp b dg; n_live = true }
            end
            else begin
              if dg <> Ar.no_guard then Ar.release_slot s dg;
              Ar.release_slot s wg;
              expired_snapshot t c v
            end
      end

    (* Fig 9 lines 34–35: [v] expired, and a null snapshot is only
       linearizable if the cell still holds it; otherwise retry. *)
    and expired_snapshot t c v =
      if slot_eq (Sched.Atomic.get c.awp) v then
        { n_slot = Ptr.with_tag Null (slot_tag v); n_guard = Ar.no_guard; n_live = true }
      else weak_snapshot t c

    let get_snapshot (t : thr) (c : 'a t) : 'a weak_snapshot =
      require_weak t.rt;
      check_section t "Awp.get_snapshot";
      weak_snapshot t c

    let clear (t : thr) (c : 'a t) =
      require_weak t.rt;
      let old = Sched.Atomic.exchange c.awp Null in
      match target old with Null -> () | cb -> delayed_weak_decrement t.rt ~pid:t.pid cb
  end

  (* ------------------------------------------------------------------ *)
  (* Maintenance *)

  (** Apply every deferred operation that is currently safe, plus the
      cascades it triggers ({!Acquire_retire.Make.flush}). Benchmarks
      call this between phases. *)
  let flush (t : thr) = Ar.flush t.rt.ar ~pid:t.pid

  (** Teardown at quiescence ({!Acquire_retire.Make.quiesce}): after it,
      every unreachable object has been reclaimed; with no strong
      cycles, [live_objects] counts exactly the objects still owned by
      live pointers. *)
  let quiesce rt = Ar.quiesce rt.ar

  let live_objects rt = Simheap.live (heap rt)
  let peak_objects rt = Simheap.peak (heap rt)

  (** Snapshot path statistics: (fast guard-protected, slow
      count-incrementing) totals since creation. The slow share is the
      Fig 11 mechanism: protected-pointer schemes fall back to real
      increments when announcement slots run out. *)
  let snapshot_stats rt =
    Array.fold_left (fun (fast, slow) b -> (fast + b.fast, slow + b.slow)) (0, 0) rt.books

  (** Deferred decrements and disposals of all three kinds currently
      parked in the acquire–retire instance: held by the scheme, or
      released and left queued by an eject
      ({!Acquire_retire.Make.total_pending}). *)
  let retired_backlog rt = Ar.total_pending rt.ar

  (** Crash/stall recovery on the acquire–retire instance: the
      abandoned pid's critical section closes, its announcement slots
      clear, and its parked deferred operations of all three kinds land
      in the shared orphan pool for survivor adoption — so one stalled
      thread cannot pin the whole runtime's backlog. The counts its
      counted snapshots still hold go to the pool too, as decrements,
      without a scheme call as the dead pid; its books then number a
      closed gap, so no snapshot it took can drop later. *)
  let abandon rt ~pid =
    Ar.abandon rt.ar ~pid;
    let b = rt.books.(pid) in
    for i = 0 to b.n_counted - 1 do
      let (Counted cb) = b.counted.(i) in
      Ar.orphan rt.ar (Smr.Deferred.make ~id:Ident.null ~birth:0 rt.runs.run_decrement cb)
    done;
    b.n_counted <- 0;
    b.section <- (b.section lor 1) + 1

  let stalled rt = Ar.stalled rt.ar
end

(** Re-export of the scheme-agnostic public signature (the [cdrc]
    library's entry module hides sibling modules, so expose it here). *)
module Intf = Cdrc_intf

(** Re-export of the control-block lifecycle core for the schedule
    explorer and the atomics profiles. *)
module Rc_cell = Rc_cell

(* Compile-time check that Make's output satisfies the scheme-agnostic
   public signature consumed by data structures and benchmarks. *)
module Check (S : Smr.Smr_intf.S) : Cdrc_intf.S = Make (S)
