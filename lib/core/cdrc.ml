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
    instance says which operation to apply; a {!Smr.Deferred.t} closure
    already carries its operation, so one instance suffices. Every
    deferred operation on a control block is retired under the identity
    that all guards on the block announce, so merging the instances
    only adds guards that hold it back: it can run later than under
    Fig 8, never earlier (DESIGN.md S8).

    OCaml-specific API shape (DESIGN.md S5/S6): pointers are linear
    values with explicit [drop] instead of destructors; atomic pointer
    CAS is logical (control-block identity + mark bit) implemented with
    a retry loop over a boxed slot; all racy accesses and snapshot
    lifetimes must happen inside a critical section ({!Make.critically}),
    exactly as §3.4 requires for region schemes. *)

module Make (S : Smr.Smr_intf.S) = struct
  let scheme_name = "RC" ^ S.name

  (* The acquire–retire runtime under the RC runtime's name, so that
     over HP its knob handle reads RCHP and its watchdog counts under
     ar.rchp.watchdog. *)
  module Ar = Acquire_retire.Make (struct
    include S

    let name = scheme_name
  end)

  (* The control-block lifecycle core (counters + value cell); the
     schedule explorer drives the same module. *)
  module Cell = Rc_cell
  module Ident = Smr.Ident

  (* Registry mirrors of this runtime's counters. The padded per-rt
     [snap_fast]/[snap_slow] fields below stay authoritative for
     [snapshot_stats] (they are unconditional and per-instance); the
     registry copies are the globally-collected view the [stats] CLI
     reports, and like all telemetry they only move when enabled. *)
  let mprefix = "cdrc." ^ String.lowercase_ascii scheme_name ^ "."
  let snap_fast_c = Obs.Metrics.counter (mprefix ^ "snapshot.fast")
  let snap_slow_c = Obs.Metrics.counter (mprefix ^ "snapshot.slow")
  let dec_deferred_c = Obs.Metrics.counter (mprefix ^ "decrement.deferred")
  let weak_dec_deferred_c = Obs.Metrics.counter (mprefix ^ "weak_decrement.deferred")
  let dispose_deferred_c = Obs.Metrics.counter (mprefix ^ "dispose.deferred")

  exception Use_after_drop of string
  (** Raised when a dropped (or moved-from) pointer is used again —
      the analogue of C++ use-after-destructor UB, made loud. *)

  (* ------------------------------------------------------------------ *)
  (* Control blocks and the runtime *)

  type 'a control_block = {
    cell : 'a Cell.t; (* value (None once disposed) + strong/weak counters *)
    birth : int;
    block : Simheap.block;
    destroy : int -> 'a -> unit; (* user hook, pid of executing thread *)
  }

  type rt = {
    ar : Ar.t; (* the one acquire–retire instance *)
    support_weak : bool;
    (* instrumentation: snapshot fast (guard) vs slow (count increment)
       paths, per thread — the mechanism behind the paper's Fig 11. *)
    snap_fast : int Padded.t;
    snap_slow : int Padded.t;
  }

  type thr = { rt : rt; pid : int }

  let create ?(support_weak = true) ?epoch_freq ?cleanup_freq ?slots_per_thread ?heap
      ~max_threads () =
    let heap =
      match heap with Some h -> h | None -> Simheap.create ~name:("rc-" ^ S.name) ()
    in
    {
      ar = Ar.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~heap ~max_threads ();
      support_weak;
      snap_fast = Padded.create max_threads 0;
      snap_slow = Padded.create max_threads 0;
    }

  let heap rt = Ar.heap rt.ar
  let max_threads rt = Ar.max_threads rt.ar

  let thread rt pid =
    if pid < 0 || pid >= max_threads rt then invalid_arg "Cdrc.thread: pid out of range";
    { rt; pid }

  (* ------------------------------------------------------------------ *)
  (* Reference-count primitives (Fig 8) *)

  let expired cb = Cell.expired cb.cell

  let must_increment cb =
    if not (Cell.try_upgrade cb.cell) then
      failwith "Cdrc: invariant violated: increment of a dead strong count"

  let weak_increment cb =
    if not (Cell.weak_increment_if_not_zero cb.cell) then
      failwith "Cdrc: invariant violated: increment of a dead weak count"

  let free_cb rt cb =
    ignore rt;
    Cell.clear cb.cell;
    Simheap.free cb.block

  (* Defer [op] on [cb] until no guard taken before this call protects
     it, counting it under its kind's [counter], then eject: all three
     kinds share the one instance [ar], whose queue runs what the scan
     releases (cascades included) before this returns, or, from inside
     a deferred op, right after it. *)
  let delayed rt ~pid counter cb op =
    Obs.Metrics.incr counter ~pid;
    Ar.retire_id rt.ar ~pid (Ident.of_val cb) ~birth:cb.birth op;
    Ar.eject rt.ar ~pid

  let rec decrement rt ~pid cb =
    if Cell.strong_decrement cb.cell then
      if rt.support_weak then
        delayed rt ~pid dispose_deferred_c cb (fun epid -> dispose rt ~pid:epid cb)
      else
        (* Strong-only mode: no weak snapshot can observe the object, so
           dispose as soon as the count dies — via the queue, so that a
           destroy hook dropping a long chain cannot overflow the stack. *)
        Ar.run rt.ar ~pid (fun epid -> dispose rt ~pid:epid cb)

  and dispose rt ~pid cb =
    (match Cell.take cb.cell with
    | Some v -> cb.destroy pid v
    | None -> failwith "Cdrc: invariant violated: double dispose");
    weak_decrement rt ~pid cb

  and weak_decrement rt ~pid:_ cb = if Cell.weak_decrement cb.cell then free_cb rt cb

  let delayed_decrement rt ~pid cb =
    delayed rt ~pid dec_deferred_c cb (fun epid -> decrement rt ~pid:epid cb)

  let delayed_weak_decrement rt ~pid cb =
    delayed rt ~pid weak_dec_deferred_c cb (fun epid -> weak_decrement rt ~pid:epid cb)

  (* ------------------------------------------------------------------ *)
  (* Slots: the value stored in atomic shared/weak pointer cells.
     Logical CAS compares control-block identity plus the mark bit;
     marks are first-class because the paper's benchmarks all need
     marked pointers (§5.1). *)

  (* Tags are 2-bit integers packed next to the pointer, exactly like
     the low pointer bits C++ implementations steal: bit 0 is the
     Harris "mark", bit 1 the Natarajan–Mittal "tag"/"flag" second bit.
     The untagged [Ptr] constructor keeps the hot path a one-field
     block. *)
  type 'a slot =
    | Null
    | Null_tagged of int (* tag in 1..3 *)
    | Ptr of 'a control_block
    | Tagged of 'a control_block * int (* tag in 1..3 *)

  type 'a ptr = 'a slot
  (** A non-owning view of a pointer value: what atomic cells hold and
      what CAS compares. Obtain views from owned pointers ([Shared.ptr],
      [Snapshot.ptr], …); a view is valid only while its backing owner
      is live. *)

  let slot_ident = function
    | Null | Null_tagged _ -> Ident.null
    | Ptr cb | Tagged (cb, _) -> Ident.of_val cb

  let slot_tag = function Null | Ptr _ -> 0 | Null_tagged g | Tagged (_, g) -> g

  let slot_eq a b =
    match (a, b) with
    | Null, Null -> true
    | Null_tagged g, Null_tagged h -> g = h
    | Ptr x, Ptr y -> x == y
    | Tagged (x, g), Tagged (y, h) -> x == y && g = h
    | _ -> false

  let cb_of = function Null | Null_tagged _ -> None | Ptr cb | Tagged (cb, _) -> Some cb

  module Ptr = struct
    type 'a t = 'a ptr

    let null : 'a t = Null
    let is_null = function Null | Null_tagged _ -> true | Ptr _ | Tagged _ -> false
    let tag = slot_tag
    let is_marked p = slot_tag p land 1 <> 0

    let with_tag (p : 'a t) g : 'a t =
      if g < 0 || g > 3 then invalid_arg "Ptr.with_tag: tag must be in 0..3";
      match (p, g) with
      | (Null | Null_tagged _), 0 -> Null
      | (Null | Null_tagged _), g -> Null_tagged g
      | (Ptr cb | Tagged (cb, _)), 0 -> Ptr cb
      | (Ptr cb | Tagged (cb, _)), g -> Tagged (cb, g)

    let with_mark (p : 'a t) m : 'a t =
      with_tag p (if m then slot_tag p lor 1 else slot_tag p land lnot 1)

    let equal = slot_eq

    let same_object a b =
      match (cb_of a, cb_of b) with
      | None, None -> true
      | Some x, Some y -> x == y
      | _ -> false

    (** Logical value read (unprotected!): only for diagnostics,
        quiescent inspection, and values the caller knows are pinned. *)
    let strong_count p = match cb_of p with None -> 0 | Some cb -> Cell.strong_count cb.cell
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

  let begin_critical_section (t : thr) = Ar.begin_critical_section t.rt.ar ~pid:t.pid
  let end_critical_section (t : thr) = Ar.end_critical_section t.rt.ar ~pid:t.pid

  let critically (t : thr) f =
    begin_critical_section t;
    Fun.protect ~finally:(fun () -> end_critical_section t) f

  (* ------------------------------------------------------------------ *)
  (* Owned pointer types *)

  type 'a shared = { mutable s_cb : 'a control_block option; mutable s_live : bool }

  (* A snapshot's guard is [Ar.no_guard] when it holds a count instead
     (the slow path, or a null snapshot). *)
  type 'a snapshot = {
    n_cb : 'a control_block option;
    n_guard : S.guard;
    n_tag : int;
    mutable n_live : bool;
  }

  type 'a weak = { mutable w_cb : 'a control_block option; mutable w_live : bool }

  type 'a weak_snapshot = {
    ws_cb : 'a control_block option;
    ws_guard : S.guard; (* dispose guard, or [Ar.no_guard]: counted *)
    ws_tag : int;
    mutable ws_live : bool;
  }

  type 'a asp = { asp : 'a slot Sched.Atomic.t }
  type 'a awp = { awp : 'a slot Sched.Atomic.t }

  let check_owner live what = if not live then raise (Use_after_drop what)

  (* ------------------------------------------------------------------ *)

  module Shared = struct
    type 'a t = 'a shared

    let null () : 'a t = { s_cb = None; s_live = true }

    let make (t : thr) ?destroy v : 'a t =
      let rt = t.rt in
      let destroy =
        match destroy with
        | None -> fun _pid _v -> ()
        | Some d -> fun pid v -> d (thread rt pid) v
      in
      let cb =
        {
          cell = Cell.make v;
          birth = Ar.birth rt.ar ~pid:t.pid;
          block = Simheap.alloc (heap rt);
          destroy;
        }
      in
      { s_cb = Some cb; s_live = true }

    let is_null (p : 'a t) =
      check_owner p.s_live "shared";
      p.s_cb = None

    let get (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with
      | None -> invalid_arg "Shared.get: null pointer"
      | Some cb -> (
          Simheap.check_live cb.block;
          match Cell.read cb.cell with
          | Some v -> v
          | None -> failwith "Cdrc: invariant violated: strong deref of disposed object")

    let ptr (p : 'a t) : 'a ptr =
      check_owner p.s_live "shared";
      match p.s_cb with None -> Null | Some cb -> Ptr cb

    let copy (t : thr) (p : 'a t) : 'a t =
      ignore t;
      check_owner p.s_live "shared";
      match p.s_cb with
      | None -> null ()
      | Some cb ->
          must_increment cb;
          { s_cb = Some cb; s_live = true }

    let drop (t : thr) (p : 'a t) =
      check_owner p.s_live "shared";
      p.s_live <- false;
      (match p.s_cb with
      | None -> ()
      | Some cb ->
          p.s_cb <- None;
          decrement t.rt ~pid:t.pid cb)

    let use_count (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with None -> 0 | Some cb -> Cell.strong_count cb.cell

    let weak_count (p : 'a t) =
      check_owner p.s_live "shared";
      match p.s_cb with None -> 0 | Some cb -> Cell.weak_count cb.cell

    let equal (a : 'a t) (b : 'a t) =
      check_owner a.s_live "shared";
      check_owner b.s_live "shared";
      match (a.s_cb, b.s_cb) with
      | None, None -> true
      | Some x, Some y -> x == y
      | _ -> false

    (** Scoped allocation: the pointer is dropped when [f] returns or
        raises (the OCaml stand-in for C++ scope-bound destruction,
        DESIGN.md S6). *)
    let scoped (t : thr) ?destroy v f =
      let p = make t ?destroy v in
      Fun.protect ~finally:(fun () -> drop t p) (fun () -> f p)
  end

  module Snapshot = struct
    type 'a t = 'a snapshot

    let null () : 'a t = { n_cb = None; n_guard = Ar.no_guard; n_tag = 0; n_live = true }

    let is_null (p : 'a t) =
      check_owner p.n_live "snapshot";
      p.n_cb = None

    let is_marked (p : 'a t) =
      check_owner p.n_live "snapshot";
      p.n_tag land 1 <> 0

    let tag (p : 'a t) =
      check_owner p.n_live "snapshot";
      p.n_tag

    let get (p : 'a t) =
      check_owner p.n_live "snapshot";
      match p.n_cb with
      | None -> invalid_arg "Snapshot.get: null snapshot"
      | Some cb -> (
          Simheap.check_live cb.block;
          match Cell.read cb.cell with
          | Some v -> v
          | None -> failwith "Cdrc: invariant violated: snapshot deref of disposed object")

    let ptr ?tag (p : 'a t) : 'a ptr =
      check_owner p.n_live "snapshot";
      let g = match tag with Some g -> g | None -> p.n_tag in
      let base = match p.n_cb with None -> Null | Some cb -> Ptr cb in
      Ptr.with_tag base g

    (* Fig 5, snapshot_ptr::release *)
    let drop (t : thr) (p : 'a t) =
      check_owner p.n_live "snapshot";
      p.n_live <- false;
      if p.n_guard <> Ar.no_guard then Ar.release_unscoped t.rt.ar ~pid:t.pid p.n_guard
      else match p.n_cb with Some cb -> decrement t.rt ~pid:t.pid cb | None -> ()

    (** Upgrade to an owning shared pointer (the snapshot stays live). *)
    let to_shared (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.n_live "snapshot";
      match p.n_cb with
      | None -> Shared.null ()
      | Some cb ->
          must_increment cb;
          { s_cb = Some cb; s_live = true }

    let use_count (p : 'a t) =
      check_owner p.n_live "snapshot";
      match p.n_cb with None -> 0 | Some cb -> Cell.strong_count cb.cell

    let is_protected (p : 'a t) = p.n_guard <> Ar.no_guard
  end

  module Asp = struct
    type 'a t = 'a asp

    let make_null () : 'a t = { asp = Sched.Atomic.make Null }

    (** Initialize a cell from an owned view, taking a count unit. *)
    let make (t : thr) (v : 'a ptr) : 'a t =
      ignore t;
      (match cb_of v with Some cb -> must_increment cb | None -> ());
      { asp = Sched.Atomic.make v }

    (** Unprotected read of the current logical value. Only safe for
        diagnostics or quiescent inspection. *)
    let unsafe_ptr (c : 'a t) : 'a ptr = Sched.Atomic.get c.asp

    (* Fig 8 load_and_increment *)
    let load (t : thr) (c : 'a t) : 'a shared =
      let v, g = Ar.protect_unscoped t.rt.ar ~pid:t.pid ~reserved:true ~ident:slot_ident c.asp in
      let res =
        match cb_of v with
        | None -> Shared.null ()
        | Some cb ->
            must_increment cb;
            { s_cb = Some cb; s_live = true }
      in
      Ar.release_unscoped t.rt.ar ~pid:t.pid g;
      res

    let store (t : thr) (c : 'a t) (desired : 'a ptr) =
      (match cb_of desired with Some cb -> must_increment cb | None -> ());
      let old = Sched.Atomic.exchange c.asp desired in
      match cb_of old with Some cb -> delayed_decrement t.rt ~pid:t.pid cb | None -> ()

    (** Logical CAS. [desired] must be backed by an owned reference the
        caller holds across the call (shared, snapshot, or the null
        view); on success the cell takes a new count unit on [desired]
        and releases (deferred) its unit on [expected]. *)
    let compare_and_swap (t : thr) (c : 'a t) ~(expected : 'a ptr) ~(desired : 'a ptr) =
      (match cb_of desired with Some cb -> must_increment cb | None -> ());
      if slot_cas c.asp expected desired then begin
        (match cb_of expected with Some cb -> delayed_decrement t.rt ~pid:t.pid cb | None -> ());
        true
      end
      else begin
        (match cb_of desired with Some cb -> decrement t.rt ~pid:t.pid cb | None -> ());
        false
      end

    (** Attempt to set the mark bit on the current value if it equals
        [expected] unmarked — the pointer-tagging idiom of Harris-style
        structures, provided natively so data structures need no extra
        count traffic. *)
    let try_mark (t : thr) (c : 'a t) ~(expected : 'a ptr) =
      ignore t;
      slot_cas c.asp (Ptr.with_mark expected false) (Ptr.with_mark expected true)

    let bump counter mirror (t : thr) =
      Padded.set counter t.pid (Padded.get counter t.pid + 1);
      Obs.Metrics.incr mirror ~pid:t.pid

    (* Fig 5 get_snapshot *)
    let get_snapshot (t : thr) (c : 'a t) : 'a snapshot =
      let ar = t.rt.ar and pid = t.pid in
      match Ar.protect_unscoped ar ~pid ~reserved:false ~ident:slot_ident c.asp with
      | v, g when g <> Ar.no_guard -> (
          bump t.rt.snap_fast snap_fast_c t;
          match cb_of v with
          | None ->
              Ar.release_unscoped ar ~pid g;
              { n_cb = None; n_guard = Ar.no_guard; n_tag = slot_tag v; n_live = true }
          | Some cb -> { n_cb = Some cb; n_guard = g; n_tag = slot_tag v; n_live = true })
      | _ -> (
          (* Slow path: protect with the reserved slot, take a real
             count, release the slot (Fig 5 lines 8–11). *)
          bump t.rt.snap_slow snap_slow_c t;
          let v, g = Ar.protect_unscoped ar ~pid ~reserved:true ~ident:slot_ident c.asp in
          match cb_of v with
          | None ->
              Ar.release_unscoped ar ~pid g;
              { n_cb = None; n_guard = Ar.no_guard; n_tag = slot_tag v; n_live = true }
          | Some cb ->
              must_increment cb;
              Ar.release_unscoped ar ~pid g;
              { n_cb = Some cb; n_guard = Ar.no_guard; n_tag = slot_tag v; n_live = true })

    (** Scoped snapshot: dropped when [f] returns or raises. *)
    let with_snapshot (t : thr) (c : 'a t) f =
      let s = get_snapshot t c in
      Fun.protect ~finally:(fun () -> Snapshot.drop t s) (fun () -> f s)

    (** Release the cell's count unit (node teardown in destroy hooks). *)
    let clear (t : thr) (c : 'a t) =
      let old = Sched.Atomic.exchange c.asp Null in
      match cb_of old with Some cb -> delayed_decrement t.rt ~pid:t.pid cb | None -> ()
  end

  (* ------------------------------------------------------------------ *)
  (* Weak side (§4, Fig 9) *)

  let require_weak rt =
    if not rt.support_weak then
      invalid_arg "Cdrc: weak pointers need a runtime created with ~support_weak:true"

  module Weak = struct
    type 'a t = 'a weak

    let null () : 'a t = { w_cb = None; w_live = true }

    let of_shared (t : thr) (p : 'a shared) : 'a t =
      require_weak t.rt;
      check_owner p.s_live "shared";
      match p.s_cb with
      | None -> null ()
      | Some cb ->
          weak_increment cb;
          { w_cb = Some cb; w_live = true }

    let of_snapshot (t : thr) (p : 'a snapshot) : 'a t =
      require_weak t.rt;
      check_owner p.n_live "snapshot";
      match p.n_cb with
      | None -> null ()
      | Some cb ->
          weak_increment cb;
          { w_cb = Some cb; w_live = true }

    let is_null (p : 'a t) =
      check_owner p.w_live "weak";
      p.w_cb = None

    let expired (p : 'a t) =
      check_owner p.w_live "weak";
      match p.w_cb with None -> true | Some cb -> expired cb

    let ptr (p : 'a t) : 'a ptr =
      check_owner p.w_live "weak";
      match p.w_cb with None -> Null | Some cb -> Ptr cb

    (** Upgrade ("lock"): returns a null shared pointer if the object
        has expired. The sticky counter makes this a single
        increment-if-not-zero — no CAS loop (§4.3). *)
    let lock (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.w_live "weak";
      match p.w_cb with
      | None -> Shared.null ()
      | Some cb ->
          if Cell.try_upgrade cb.cell then { s_cb = Some cb; s_live = true }
          else Shared.null ()

    let copy (t : thr) (p : 'a t) : 'a t =
      ignore t;
      check_owner p.w_live "weak";
      match p.w_cb with
      | None -> null ()
      | Some cb ->
          weak_increment cb;
          { w_cb = Some cb; w_live = true }

    let drop (t : thr) (p : 'a t) =
      check_owner p.w_live "weak";
      p.w_live <- false;
      (match p.w_cb with
      | None -> ()
      | Some cb ->
          p.w_cb <- None;
          weak_decrement t.rt ~pid:t.pid cb)

    let weak_count (p : 'a t) =
      check_owner p.w_live "weak";
      match p.w_cb with None -> 0 | Some cb -> Cell.weak_count cb.cell
  end

  module Weak_snapshot = struct
    type 'a t = 'a weak_snapshot

    let null () : 'a t =
      { ws_cb = None; ws_guard = Ar.no_guard; ws_tag = 0; ws_live = true }

    let is_null (p : 'a t) =
      check_owner p.ws_live "weak_snapshot";
      p.ws_cb = None

    let is_marked (p : 'a t) =
      check_owner p.ws_live "weak_snapshot";
      p.ws_tag land 1 <> 0

    let tag (p : 'a t) =
      check_owner p.ws_live "weak_snapshot";
      p.ws_tag

    let get (p : 'a t) =
      check_owner p.ws_live "weak_snapshot";
      match p.ws_cb with
      | None -> invalid_arg "Weak_snapshot.get: null snapshot"
      | Some cb -> (
          Simheap.check_live cb.block;
          match Cell.read cb.cell with
          | Some v -> v
          | None ->
              failwith "Cdrc: invariant violated: weak snapshot deref of disposed object")

    let ptr ?tag (p : 'a t) : 'a ptr =
      check_owner p.ws_live "weak_snapshot";
      let g = match tag with Some g -> g | None -> p.ws_tag in
      let base = match p.ws_cb with None -> Null | Some cb -> Ptr cb in
      Ptr.with_tag base g

    (** Upgrade to a shared pointer; null if the object expired. *)
    let to_shared (t : thr) (p : 'a t) : 'a shared =
      ignore t;
      check_owner p.ws_live "weak_snapshot";
      match p.ws_cb with
      | None -> Shared.null ()
      | Some cb ->
          if Cell.try_upgrade cb.cell then { s_cb = Some cb; s_live = true }
          else Shared.null ()

    (* Fig 9, weak_snapshot_ptr::release *)
    let drop (t : thr) (p : 'a t) =
      check_owner p.ws_live "weak_snapshot";
      p.ws_live <- false;
      if p.ws_guard <> Ar.no_guard then Ar.release_unscoped t.rt.ar ~pid:t.pid p.ws_guard
      else match p.ws_cb with Some cb -> decrement t.rt ~pid:t.pid cb | None -> ()

    let is_protected (p : 'a t) = p.ws_guard <> Ar.no_guard
  end

  module Awp = struct
    type 'a t = 'a awp

    let make_null () : 'a t =
      { awp = Sched.Atomic.make Null }

    let make (t : thr) (v : 'a ptr) : 'a t =
      require_weak t.rt;
      (match cb_of v with Some cb -> weak_increment cb | None -> ());
      { awp = Sched.Atomic.make v }

    let unsafe_ptr (c : 'a t) : 'a ptr = Sched.Atomic.get c.awp

    (* Fig 9 store: weak-increment desired, exchange, deferred
       weak-decrement of the old value. *)
    let store (t : thr) (c : 'a t) (desired : 'a ptr) =
      require_weak t.rt;
      (match cb_of desired with Some cb -> weak_increment cb | None -> ());
      let old = Sched.Atomic.exchange c.awp desired in
      match cb_of old with Some cb -> delayed_weak_decrement t.rt ~pid:t.pid cb | None -> ()

    (* Fig 9 load *)
    let load (t : thr) (c : 'a t) : 'a weak =
      require_weak t.rt;
      let v, g = Ar.protect_unscoped t.rt.ar ~pid:t.pid ~reserved:true ~ident:slot_ident c.awp in
      let res =
        match cb_of v with
        | None -> Weak.null ()
        | Some cb ->
            weak_increment cb;
            { w_cb = Some cb; w_live = true }
      in
      Ar.release_unscoped t.rt.ar ~pid:t.pid g;
      res

    (* Fig 9 compare_and_swap. [desired] must be backed by an owned
       weak-counted reference (weak, shared, or weak_snapshot) held by
       the caller across the call; OCaml's value semantics make the
       paper's clobbered-desired race inexpressible (DESIGN.md), so the
       guard on desired's location is unnecessary. *)
    let compare_and_swap (t : thr) (c : 'a t) ~(expected : 'a ptr) ~(desired : 'a ptr) =
      require_weak t.rt;
      (match cb_of desired with Some cb -> weak_increment cb | None -> ());
      if slot_cas c.awp expected desired then begin
        (match cb_of expected with
        | Some cb -> delayed_weak_decrement t.rt ~pid:t.pid cb
        | None -> ());
        true
      end
      else begin
        (match cb_of desired with Some cb -> weak_decrement t.rt ~pid:t.pid cb | None -> ());
        false
      end

    (* Fig 9 get_snapshot *)
    let get_snapshot (t : thr) (c : 'a t) : 'a weak_snapshot =
      require_weak t.rt;
      let rt = t.rt in
      let pid = t.pid in
      let rec retry () =
        let v, wg = Ar.protect_unscoped rt.ar ~pid ~reserved:true ~ident:slot_ident c.awp in
        match cb_of v with
        | None ->
            Ar.release_unscoped rt.ar ~pid wg;
            { ws_cb = None; ws_guard = Ar.no_guard; ws_tag = slot_tag v; ws_live = true }
        | Some cb ->
            (* Protect [cb]'s disposal with a fresh guard on [v], which
               [wg] already protects. For IBR/HE the dispose-side
               interval must be re-stabilized before trusting the
               liveness read; HP and PTB confirm [v] at once. *)
            let _, dg =
              Ar.protect_unscoped rt.ar ~pid ~reserved:false ~seen:v ~ident:slot_ident c.awp
            in
            let alive =
              if dg <> Ar.no_guard then not (expired cb)
              else
                (* Fig 9 line 26: out of dispose guards — fall back to
                   a real strong increment if the object is alive. *)
                Cell.try_upgrade cb.cell
            in
            if alive then begin
              Ar.release_unscoped rt.ar ~pid wg;
              { ws_cb = Some cb; ws_guard = dg; ws_tag = slot_tag v; ws_live = true }
            end
            else begin
              if dg <> Ar.no_guard then Ar.release_unscoped rt.ar ~pid dg;
              Ar.release_unscoped rt.ar ~pid wg;
              (* Fig 9 lines 34–35: only linearizable to return null if
                 the cell still holds the expired pointer. *)
              if slot_eq (Sched.Atomic.get c.awp) v then
                { ws_cb = None; ws_guard = Ar.no_guard; ws_tag = slot_tag v; ws_live = true }
              else retry ()
            end
      in
      retry ()

    let clear (t : thr) (c : 'a t) =
      require_weak t.rt;
      let old = Sched.Atomic.exchange c.awp Null in
      match cb_of old with Some cb -> delayed_weak_decrement t.rt ~pid:t.pid cb | None -> ()
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
    ( Padded.fold ( + ) 0 rt.snap_fast,
      Padded.fold ( + ) 0 rt.snap_slow )

  (** Deferred decrements and disposals of all three kinds currently
      parked in the acquire–retire instance. *)
  let retired_backlog rt = Ar.total_pending rt.ar

  (** CONTROLLABLE surface: the one knob handle of the runtime's
      acquire–retire instance, which every deferred kind shares. *)
  let control rt = [ Ar.handle rt.ar ]

  (** Crash/stall recovery on the acquire–retire instance: the
      abandoned pid's critical section closes, its announcement slots
      clear, and its parked deferred operations of all three kinds land
      in the shared orphan pool for survivor adoption — so one stalled
      thread cannot pin the whole runtime's backlog. *)
  let abandon rt ~pid = Ar.abandon rt.ar ~pid

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
