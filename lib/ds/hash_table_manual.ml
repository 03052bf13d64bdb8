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

  (* The scope bodies: the chain operations on [key]'s bucket. *)
  let cell ctx key = ctx.t.buckets.(bucket ctx.t key)
  let insert_in s ctx key = L.insert_in s ctx.c (cell ctx key) key
  let remove_in s ctx key = L.remove_in s ctx.c (cell ctx key) key
  let scope ctx body a b = L.Ar.scope ctx.t.list.L.ar ~pid:ctx.c.L.pid body a b
  let insert ctx key = scope ctx { f = insert_in } ctx key
  let remove ctx key = scope ctx { f = remove_in } ctx key
  let contains ctx key = scope ctx { f = L.contains_from } (cell ctx key) key

  (* Hash tables do not support ordered ranges; the paper never runs
     range queries on them. Count by scanning all buckets, one
     protection scope per bucket. *)
  let range_query ctx lo hi =
    Array.fold_left (fun acc b -> acc + scope ctx { f = L.range_cell } b (lo, hi)) 0 ctx.t.buckets

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
