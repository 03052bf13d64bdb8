(* Fixed-bucket log-scale histograms.

   32 buckets: bucket 0 holds v <= 0 (and v = 0 — "freed within the
   same tick"), bucket i >= 1 holds 2^(i-1) <= v < 2^i, and the last
   bucket absorbs everything above 2^30. Recording is a bucket-index
   computation plus one fetch-and-add into a per-domain shard; merging
   only happens at report time, so the hot path never takes a lock.

   Bucketing loses sub-bucket resolution, which is the deal we want:
   reclamation latencies span six orders of magnitude and the questions
   asked of them (p50/p99/p999, "does HP free in tens of ticks while
   EBR takes thousands?") only need the exponent. A percentile is
   reported as the inclusive upper bound of its bucket (2^i - 1), i.e.
   a guaranteed "no worse than" figure. *)

let buckets = 32
let shards = 16
let shard_mask = shards - 1

type t = {
  h_name : string;
  (* shards * buckets plain-atomic cells; a shard's buckets are
     deliberately contiguous (not Padded) so one domain's observations
     stay on few lines. *)
  cells : int Atomic.t array; [@rc_lint.allow "R6"]
}

let lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let histo name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h =
            { h_name = name; cells = Array.init (shards * buckets) (fun _ -> Atomic.make 0) }
          in
          Hashtbl.add registry name h;
          h)

let name h = h.h_name

let bucket_of v =
  if v <= 0 then 0
  else
    (* index of the highest set bit, + 1: v in [2^(i-1), 2^i) -> i *)
    let rec go v i = if v = 0 then i else go (v lsr 1) (i + 1) in
    min (buckets - 1) (go v 0)

(** Inclusive upper bound of bucket [i]: the value reported for any
    percentile that lands in it. *)
let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let[@inline never] observe_enabled h ~pid v =
  let base = (pid land shard_mask) * buckets in
  ignore (Atomic.fetch_and_add h.cells.(base + bucket_of v) 1)

(* The flag test, inlined at every call site, as [Metrics.add]'s. *)
let[@inline] observe h ~pid v = if Metrics.enabled () then observe_enabled h ~pid v

(** Merged bucket counts across all shards, as a [buckets]-long array. *)
let merged h =
  let acc = Array.make buckets 0 in
  for s = 0 to shards - 1 do
    for b = 0 to buckets - 1 do
      acc.(b) <- acc.(b) + Atomic.get h.cells.((s * buckets) + b)
    done
  done;
  acc

let count h = Array.fold_left ( + ) 0 (merged h)

(* Nearest-rank over bucket counts: walk buckets until the cumulative
   count reaches ceil(p/100 * n). *)
let percentile_of_counts counts p =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else begin
    (* Same epsilon as [Repro_util.Stats.percentile]: keep 99.9% of
       1000 at rank 999 despite the float product landing on
       999.0000000000001. *)
    let rank = int_of_float (ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
    let rank = if rank < 1 then 1 else rank in
    let cum = ref 0 and result = ref (bucket_upper (buckets - 1)) in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= rank then begin
             result := bucket_upper i;
             raise Exit
           end)
         counts
     with Exit -> ());
    Some !result
  end

let percentile h p = percentile_of_counts (merged h) p

(** (p50, p99, p999) of [h], or [None] if it has no observations. *)
let percentiles h =
  let counts = merged h in
  match percentile_of_counts counts 50. with
  | None -> None
  | Some p50 ->
      let get p = Option.get (percentile_of_counts counts p) in
      Some (p50, get 99., get 99.9)

let dump () =
  with_lock (fun () ->
      Hashtbl.fold (fun _ h acc -> h :: acc) registry []
      |> List.sort (fun a b -> compare a.h_name b.h_name))

let merged_suffix suffix =
  let acc = Array.make buckets 0 in
  List.iter
    (fun h ->
      if String.ends_with ~suffix h.h_name then
        Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) (merged h))
    (dump ());
  acc

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ h -> Array.iter (fun c -> Atomic.set c 0) h.cells) registry)
