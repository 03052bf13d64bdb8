(** The announcement-slot table of HP, HE and PTB: [k] slots per pid
    plus a reserved one, each pid's free-slot pool and scan snapshot.
    [empty] is what an unused slot holds. A scheme copies [k], [ann]
    and [free] into its own record, so its announce path reads them
    flat, and writes [ann] at {!index} itself. *)

(* A scan's snapshot of the non-empty announcements, [vals.(0 .. n-1)]:
   preallocated per pid, so that a scan builds no list. *)
type 'a snapshot = { vals : 'a array; mutable n : int }

type 'a t = {
  k : int; (* non-reserved slots per pid *)
  empty : 'a;
  ann : 'a Padded.t; (* (k+1) per pid; local slot [k] is the reserved one *)
  free : Slot_pool.t array; (* each pid's free local slots; owner only *)
  snaps : 'a snapshot array; (* each pid's scan snapshot; owner only *)
}

let create ~k ~max_threads empty =
  let n = (k + 1) * max_threads in
  {
    k;
    empty;
    ann = Padded.create n empty;
    free = Array.init max_threads (fun _ -> Slot_pool.create k);
    snaps = Array.init max_threads (fun _ -> { vals = Array.make n empty; n = 0 });
  }

let[@inline] index ~k ~pid local = (pid * (k + 1)) + local

(** Retires between scans: [cleanup_freq], floored at twice the
    announcements, since a scan's cost must amortize over O(total
    announcements) retires. *)
let period s cleanup_freq = max cleanup_freq (2 * Padded.length s.ann)

(** Every non-empty announcement, into [pid]'s snapshot. *)
let[@inline] snapshot s ~pid =
  let a = s.snaps.(pid) in
  a.n <- 0;
  for i = 0 to Padded.length s.ann - 1 do
    let v = Padded.get s.ann i in
    if v != s.empty then begin
      a.vals.(a.n) <- v;
      a.n <- a.n + 1
    end
  done;
  a

(** Crash recovery: empty the pid's slots and free them all. *)
let clear s ~pid =
  for l = 0 to s.k do
    Padded.set s.ann (index ~k:s.k ~pid l) s.empty
  done;
  Slot_pool.reset s.free.(pid)
