(** Michael's hash table under automatic reference counting: an array
    of {!Hm_list_rc} bucket cells sharing one RC runtime (paper
    Fig 13b, automatic side). *)

(* The bucket of [key] in an array of [nbuckets]: a multiplicative
   hash. The KV store picks a key's chain within its shard's block of
   [nbuckets] chains through it too. *)
let bucket nbuckets key = key * 2654435761 land max_int mod nbuckets

module Make (R : Cdrc.Intf.S) = struct
  module L = Hm_list_rc.Make (R)

  let name = R.scheme_name

  type t = { list : L.t; buckets : unit L.node R.asp array; nbuckets : int }
  type ctx = { t : t; c : L.ctx }

  let default_buckets = 1 lsl 16

  let create ?slots_per_thread ?epoch_freq ?(buckets = default_buckets) ~max_threads () =
    {
      list = L.create ?slots_per_thread ?epoch_freq ~max_threads ();
      buckets = Array.init buckets (fun _ -> R.Asp.make_null ());
      nbuckets = buckets;
    }

  let ctx t pid = { t; c = L.ctx t.list pid }
  let th ctx = ctx.c.L.th

  (* The section bodies: the chain operations on [key]'s bucket. *)
  let cell ctx key = ctx.t.buckets.(bucket ctx.t.nbuckets key)
  let insert_in ctx key = L.insert_at ctx.c (cell ctx key) key
  let remove_in ctx key = L.remove_at ctx.c (cell ctx key) key
  let contains_in ctx key = L.contains_at ctx.c (cell ctx key) key

  let range_in ctx (lo, hi) =
    Array.fold_left (fun acc b -> acc + L.range_at ctx.c b lo hi) 0 ctx.t.buckets

  let insert ctx key = R.critically (th ctx) insert_in ctx key
  let remove ctx key = R.critically (th ctx) remove_in ctx key
  let contains ctx key = R.critically (th ctx) contains_in ctx key
  let range_query ctx lo hi = R.critically (th ctx) range_in ctx (lo, hi)

  let flush ctx = L.flush ctx.c
  let size t = Array.fold_left (fun acc b -> acc + L.size_at t.list.L.rt b) 0 t.buckets

  let live_objects t = L.live_objects t.list
  let peak_objects t = L.peak_objects t.list
  let reset_peak t = L.reset_peak t.list

  let teardown t =
    let th = R.thread t.list.L.rt 0 in
    Array.iter (fun b -> R.Asp.clear th b) t.buckets;
    R.quiesce t.list.L.rt
  let uaf_events _ = 0

  let snapshot_stats t = Some (R.snapshot_stats t.list.L.rt)
  let retired_backlog t = R.retired_backlog t.list.L.rt
  let stalled t = R.stalled t.list.L.rt
end
