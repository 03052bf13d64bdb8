(** Michael's lock-free hash table (Michael 2002) under manual SMR:
    a fixed array of Harris–Michael list buckets (paper Fig 13b; the
    paper sizes buckets for an average load factor of 1).

    Reuses {!Hm_list_manual}'s per-cell operations; all buckets share
    one SMR instance and one simulated heap. *)

module Make (S : Smr.Smr_intf.S) = struct
  module L = Hm_list_manual.Make (S)

  let name = S.name

  type t = { list : L.t; buckets : L.link Sched.Atomic.t array; nbuckets : int }
  type ctx = { t : t; c : L.ctx }

  let default_buckets = 1 lsl 16

  let create ?slots_per_thread ?epoch_freq ?(buckets = default_buckets) ~max_threads () =
    {
      list = L.create ?slots_per_thread ?epoch_freq ~max_threads ();
      buckets = Array.init buckets (fun _ -> Sched.Atomic.make L.null_link);
      nbuckets = buckets;
    }

  let ctx t pid = { t; c = L.ctx t.list pid }

  (* Fibonacci hashing spreads the benchmark's dense integer keys. *)
  let bucket t key = key * 2654435761 land max_int mod t.nbuckets

  let insert ctx key = L.insert_at ctx.c ctx.t.buckets.(bucket ctx.t key) key
  let remove ctx key = L.remove_at ctx.c ctx.t.buckets.(bucket ctx.t key) key
  let contains ctx key = L.contains_at ctx.c ctx.t.buckets.(bucket ctx.t key) key

  (* Hash tables do not support ordered ranges; the paper never runs
     range queries on them. Count by scanning all buckets, one
     protection scope per bucket. *)
  let range_query ctx lo hi =
    Array.fold_left (fun acc b -> acc + L.range_at ctx.c b lo hi) 0 ctx.t.buckets

  let flush ctx = L.flush ctx.c
  let size t = Array.fold_left (fun acc b -> acc + L.size_at b) 0 t.buckets
  let live_objects t = L.live_objects t.list
  let peak_objects t = L.peak_objects t.list
  let reset_peak t = L.reset_peak t.list

  let teardown t =
    Array.iter L.teardown_at t.buckets;
    L.Ar.quiesce t.list.L.ar
  let uaf_events _ = 0

  let snapshot_stats _ = None
  let retired_backlog t = L.retired_backlog t.list
  let stalled t = L.stalled t.list
end
