type t = {
  name : string;
  id : int; (* index in [registry] *)
  live_n : int Atomic.t;
  peak_n : int Atomic.t;
  next_uid : int Atomic.t; (* also the allocation count *)
}

(* A block is one word: [heap id | uid | dead bit | freed bit], from the
   top bit down. The heap is found again from its id, so a block carries
   no pointer and costs one 2-word atomic. The dead bit is its owner's
   lifecycle flag (a control block's disposal): it is claimed and read
   through [Sched.Atomic], so those two steps are scheduling points and
   counted atomics like the owner's other protocol steps; [alloc],
   [free] and [check_live] stay plain. *)
type block = int Atomic.t

exception Use_after_free of string
exception Double_free of string

let heap_bits = 22
let uid_bits = Sys.int_size - 2 - heap_bits
let max_uid = (1 lsl uid_bits) - 1
let max_heaps = 1 lsl heap_bits
let freed_bit = 1
let dead_bit = 2
let uid_shift = 2

(* Every heap ever created, by id. [create] writes it under [lock] and
   republishes it through the atomic, so a reader that got a block from
   another domain sees its heap's entry. Heaps are never removed: an id
   names one heap for the life of the process. *)
let registry : t array Atomic.t = Atomic.make [||]
let n_heaps = ref 0
let lock = Mutex.create ()

let create ?(name = "heap") () =
  Mutex.protect lock (fun () ->
      let id = !n_heaps in
      if id >= max_heaps then failwith "Simheap.create: heap ids exhausted";
      let t =
        {
          name;
          id;
          live_n = Atomic.make 0;
          peak_n = Atomic.make 0;
          next_uid = Atomic.make 0;
        }
      in
      let r = Atomic.get registry in
      let r =
        if id < Array.length r then r
        else begin
          let bigger = Array.make (max 16 (2 * id)) t in
          Array.blit r 0 bigger 0 id;
          bigger
        end
      in
      r.(id) <- t;
      Atomic.set registry r;
      n_heaps := id + 1;
      t)

let name t = t.name
let heap_of w = (Atomic.get registry).(w lsr (uid_bits + uid_shift))
let uid_of w = (w lsr uid_shift) land max_uid

let rec bump_peak t live =
  let peak = Atomic.get t.peak_n in
  if live > peak && not (Atomic.compare_and_set t.peak_n peak live) then bump_peak t live

(* The uid is taken before the live count rises, so [allocated] never
   reads below [live] and [freed] never below 0. *)
let alloc t =
  let uid = Atomic.fetch_and_add t.next_uid 1 in
  if uid > max_uid then
    failwith (Printf.sprintf "Simheap.alloc: %s: block uids exhausted" t.name);
  bump_peak t (Atomic.fetch_and_add t.live_n 1 + 1);
  Atomic.make ((t.id lsl (uid_bits + uid_shift)) lor (uid lsl uid_shift))

(* A failed CAS means a racing free set the freed bit first, or a claim
   set the dead bit: the retry re-reads, so exactly one free wins and
   every other raises. *)
let rec free b =
  let w = Atomic.get b in
  if w land freed_bit <> 0 then
    raise
      (Double_free (Printf.sprintf "%s: block %d freed twice" (heap_of w).name (uid_of w)));
  if Atomic.compare_and_set b w (w lor freed_bit) then
    ignore (Atomic.fetch_and_add (heap_of w).live_n (-1))
  else free b

let use_after_free w =
  raise
    (Use_after_free (Printf.sprintf "%s: block %d used after free" (heap_of w).name (uid_of w)))

let check_live b =
  let w = Atomic.get b in
  if w land freed_bit <> 0 then use_after_free w

let check_dead b =
  let w = Sched.Atomic.get b in
  if w land freed_bit <> 0 then use_after_free w;
  w land dead_bit <> 0

(* One add claims the dead bit. An add onto a word whose dead bit is
   already set carries into the uid, so a losing claim gives it back at
   once. Only a protocol violation (a second disposal, or one after the
   free) ever loses, and the first losing claim always sees the bit:
   only a third claim racing that give-back could misread the word. *)
let mark_dead b =
  let w = Sched.Atomic.fetch_and_add b dead_bit in
  if w land (dead_bit lor freed_bit) = 0 then true
  else begin
    ignore (Sched.Atomic.fetch_and_add b (-dead_bit));
    false
  end

let is_live b = Atomic.get b land freed_bit = 0
let uid b = uid_of (Atomic.get b)
let live t = Atomic.get t.live_n
let peak t = Atomic.get t.peak_n

(* Failed allocations past [max_uid] still advanced the counter. *)
let allocated t = min (Atomic.get t.next_uid) (max_uid + 1)

(* [live] is read first: [allocated] only grows, and never trails it. *)
let freed t =
  let live = live t in
  allocated t - live

let reset_peak t = Atomic.set t.peak_n (Atomic.get t.live_n)

let pp_stats ppf t =
  Format.fprintf ppf "live=%d peak=%d allocated=%d freed=%d" (live t) (peak t) (allocated t)
    (freed t)
