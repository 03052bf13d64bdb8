(* Quickstart: the reference-counted pointer types and how they relate
   (paper Fig 6), on a runtime built from EBR.

   Run with:  dune exec examples/quickstart.exe *)

(* Pick a manual SMR scheme; Cdrc.Make turns it into an automatic
   reference-counting runtime (the paper's §3 conversion). Any of
   Smr.Ebr / Smr.Ibr / Smr.Hyaline / Smr.Hp / Smr.Hazard_eras works. *)
module R = Cdrc.Make (Smr.Ebr)

(* Racy reads and snapshot lifetimes live inside critical sections. A
   section body is a top-level function of the operation's context and
   its input — here the thread and the cell to read: [R.critically th f
   a b] runs [f a b] in the thread's section, and opening it allocates
   nothing. A read outside a section raises [Invalid_argument]. *)
let show_snapshot th cell =
  (* snapshot: read without touching the reference count — the fast
     path that makes automatic RC as fast as manual SMR. *)
  let snap = R.Asp.get_snapshot th cell in
  Printf.printf "snapshot     : %s (protected=%b, count still %d)\n" (R.Snapshot.get snap)
    (R.Snapshot.is_protected snap) (R.Snapshot.use_count snap);
  R.Snapshot.drop th snap

let () =
  (* A runtime serving up to 4 threads (pids 0..3). *)
  let rt = R.create ~max_threads:4 () in
  let th = R.thread rt 0 in

  (* shared: an owning, counted reference. Drop it explicitly (OCaml
     has no destructors — see DESIGN.md S6). *)
  let p = R.Shared.make th "hello, cdrc" in
  Printf.printf "value        : %s\n" (R.Shared.get p);
  Printf.printf "use_count    : %d\n" (R.Shared.use_count p);

  (* atomic shared pointer (Asp): a mutable shared slot that threads
     may load/store/CAS concurrently. Storing takes its own count. *)
  let cell = R.Asp.make th (R.Shared.ptr p) in
  Printf.printf "after Asp.make, use_count = %d\n" (R.Shared.use_count p);

  R.critically th show_snapshot th cell;

  (* weak: does not keep the object alive; upgrade with lock. *)
  let w = R.Weak.of_shared th p in
  Printf.printf "expired      : %b\n" (R.Weak.expired w);
  let q = R.Weak.lock th w in
  Printf.printf "locked value : %s\n" (R.Shared.get q);
  R.Shared.drop th q;

  (* Drop every strong reference: the object is destroyed, the weak
     pointer observes expiry. *)
  R.Shared.drop th p;
  R.critically th R.Asp.clear th cell;
  R.quiesce rt;
  Printf.printf "after drops  : expired=%b, lock gives null=%b\n" (R.Weak.expired w)
    (R.Shared.is_null (R.Weak.lock th w));
  R.Weak.drop th w;
  R.quiesce rt;
  Printf.printf "live objects : %d (0 = no leaks)\n" (R.live_objects rt)
