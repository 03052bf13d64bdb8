(* Counter/gauge registry.

   Counters are sharded across [shards] cache-line-padded plain cells;
   a shard is picked by [pid land (shards - 1)] and incremented with an
   unfenced read-modify-write, so the hot path is two plain moves — no
   lock prefix, which is what keeps the enabled overhead inside the 8%
   budget on retire-per-operation workloads. The contract is single
   writer per shard: benchmark pids are dense small ints, so each live
   domain owns its cell. Two concurrent domains whose pids collide
   modulo [shards] (possible for [Domain.self]-derived pids, e.g. the
   sticky-counter metrics) can lose increments on that shard; those
   counters are diagnostics, not accounting. Cross-domain reads are
   racy-but-untorn word loads, and [Domain.join] orders them for the
   post-run reads that matter. Gauges are single last-write-wins
   atomic cells (they are set by the sampler thread, not the workers).

   Everything is gated on one runtime flag: [add] and [incr] are an
   inlined test of it around an out-of-line body, so when disabled (the
   default) a call site costs one load and a branch, and no call — the
   hot paths of the schemes stay allocation-free and call-free (see
   DESIGN.md §7). [set_gauge] is the sampler's, not a hot path's, and
   stays a call. Registration is idempotent:
   [counter name] returns the existing counter, so functor
   re-instantiation over the same scheme shares one set of cells. *)

let shards = 16
let shard_mask = shards - 1
let enabled_flag = Atomic.make false
let[@inline] enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let stride = 8 (* one live int per cache line's worth of words *)

(* [cells] is hand-strided (shards * stride, one live int per cache
   line) rather than Padded: counters are plain ints bumped
   only by their owning domain, so the Atomic.t indirection Padded
   imposes would cost on the hot path. *)
type counter = { c_name : string; cells : int array [@rc_lint.allow "R6"] }
type gauge = { g_name : string; cell : int Atomic.t }

(* The registry mutex only guards registration and whole-registry
   reads (dump/reset) — never the per-operation counter paths. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cells = Array.make (shards * stride) 0 } in
          Hashtbl.add counters name c;
          c)

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; cell = Atomic.make 0 } in
          Hashtbl.add gauges name g;
          g)

let[@inline never] add_enabled c ~pid n =
  let i = (pid land shard_mask) * stride in
  Array.unsafe_set c.cells i (Array.unsafe_get c.cells i + n)

(* The flag test, inlined at every call site (this compiler has no
   flambda; [@inline] still applies). *)
let[@inline] add c ~pid n = if Atomic.get enabled_flag then add_enabled c ~pid n
let[@inline] incr c ~pid = add c ~pid 1

let total c =
  let s = ref 0 in
  for i = 0 to shards - 1 do
    s := !s + Array.unsafe_get c.cells (i * stride)
  done;
  !s

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.cell v
let gauge_value g = Atomic.get g.cell

let find_counter name = with_lock (fun () -> Hashtbl.find_opt counters name)

(** [value name] is the current total of counter [name]; 0 when the
    counter was never registered. *)
let value name = match find_counter name with None -> 0 | Some c -> total c

let dump () =
  with_lock (fun () ->
      let cs = Hashtbl.fold (fun _ c acc -> (c.c_name, total c) :: acc) counters [] in
      let gs = Hashtbl.fold (fun _ g acc -> (g.g_name, Atomic.get g.cell) :: acc) gauges [] in
      ( List.sort (fun (a, _) (b, _) -> compare a b) cs,
        List.sort (fun (a, _) (b, _) -> compare a b) gs ))

(* Zero every cell but keep the registered names: counters are bound at
   module-initialization time, so forgetting them would orphan the
   callers' handles. *)
let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Array.fill c.cells 0 (Array.length c.cells) 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.cell 0) gauges)
