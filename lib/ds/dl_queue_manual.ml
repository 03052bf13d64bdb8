(** Ramalhete–Correia's doubly-linked queue with its {e original}
    custom manual memory management — the "Original" baseline of the
    paper's Fig 12.

    The original scheme is a specialized hazard-pointer variant: each
    thread announces the single node it operates on, and an announced
    node protects {e itself and its neighbours} — the scan holds back a
    retired node while it, its [prev], or its [next] is announced. This
    halves the memory fences compared to general-purpose HP, which is
    why the paper expects no general-purpose scheme (including ours) to
    beat it (§5.2). *)

module Make () = struct
  module Ident = Smr.Ident

  let name = "Original"

  type node = {
    value : int;
    next : link Sched.Atomic.t;
    prev : link Sched.Atomic.t;
    block : Simheap.block;
  }

  and link = node option

  type t = {
    heap : Simheap.t;
    ann : Ident.t Padded.t; (* one announcement slot per thread *)
    retired : node Queue.t array; (* owner-thread only *)
    head : link Sched.Atomic.t;
    tail : link Sched.Atomic.t;
    max_threads : int;
  }

  type ctx = { t : t; pid : int }

  let scan_threshold t = (2 * t.max_threads) + 8

  let mk_node t v prev =
    {
      value = v;
      next = Sched.Atomic.make None;
      prev = Sched.Atomic.make prev;
      block = Simheap.alloc t.heap;
    }

  let create ~max_threads () =
    let heap = Simheap.create ~name:"dlq-original" () in
    let t =
      {
        heap;
        ann = Padded.create max_threads Ident.null;
        retired = Array.init max_threads (fun _ -> Queue.create ());
        head = Sched.Atomic.make None;
        tail = Sched.Atomic.make None;
        max_threads;
      }
    in
    let dummy = Some (mk_node t min_int None) in
    Sched.Atomic.set t.head dummy;
    Sched.Atomic.set t.tail dummy;
    t

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some n -> Ident.of_val n

  (* Announce-and-revalidate on the head or tail anchor. A node enters
     every cell that links to it in the one [Some] box its enqueuer made
     (the dummy's is shared by head and tail), so links compare
     physically. *)
  let rec protect c (anchor : link Sched.Atomic.t) =
    let l = Sched.Atomic.get anchor in
    Padded.set c.t.ann c.pid (ident_of l);
    if Sched.Atomic.get anchor == l then l else protect c anchor

  let unannounce c = Padded.set c.t.ann c.pid Ident.null

  (* Deref with the poisoned-heap check: a protocol violation shows up
     as Use_after_free instead of silent corruption. *)
  let deref (n : node) =
    Simheap.check_live n.block;
    n

  let scan c =
    let t = c.t in
    let announced = ref [] in
    for i = 0 to t.max_threads - 1 do
      let id = Padded.get t.ann i in
      if not (Ident.is_null id) then announced := id :: !announced
    done;
    let announced = !announced in
    let is_announced id = List.exists (Ident.equal id) announced in
    let keep = Queue.create () in
    Queue.iter
      (fun (n : node) ->
        (* Protected while the node or either neighbour is announced;
           the neighbour links are read from the retired node itself,
           which we still own. *)
        let held =
          is_announced (Ident.of_val n)
          || is_announced (ident_of (Sched.Atomic.get n.prev))
          || is_announced (ident_of (Sched.Atomic.get n.next))
        in
        if held then Queue.push n keep else Simheap.free n.block)
      t.retired.(c.pid);
    Queue.clear t.retired.(c.pid);
    Queue.transfer keep t.retired.(c.pid)

  let retire c n =
    Queue.push n c.t.retired.(c.pid);
    if Queue.length c.t.retired.(c.pid) >= scan_threshold c.t then scan c

  let rec enqueue_in c nu link =
    match protect c c.t.tail with
    | None -> failwith "dl_queue_manual: null tail"
    | Some ltail as l ->
        let lt = deref ltail in
        Sched.Atomic.set nu.prev l;
        (* Help the previous enqueuer: lprev is protected by
           adjacency to the announced ltail. *)
        (match Sched.Atomic.get lt.prev with
        | Some lprev ->
            let next = (deref lprev).next in
            if Option.is_none (Sched.Atomic.get next) then
              ignore (Sched.Atomic.compare_and_set next None l)
        | None -> ());
        if Sched.Atomic.compare_and_set c.t.tail l link then begin
          ignore (Sched.Atomic.compare_and_set lt.next None link);
          unannounce c
        end
        else enqueue_in c nu link

  let enqueue c v =
    let nu = mk_node c.t v None in
    enqueue_in c nu (Some nu)

  let rec dequeue c =
    match protect c c.t.head with
    | None -> failwith "dl_queue_manual: null head"
    | Some lhead as l -> (
        let h = deref lhead in
        match Sched.Atomic.get h.next with
        | None ->
            unannounce c;
            None
        | Some lnext as next ->
            if Sched.Atomic.compare_and_set c.t.head l next then begin
              (* lnext is protected by adjacency to lhead, which we
                 still announce. *)
              let v = (deref lnext).value in
              retire c lhead;
              unannounce c;
              Some v
            end
            else dequeue c)

  let flush c = scan c
  let live_objects t = Simheap.live t.heap
  let retired_backlog t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.retired

  let teardown t =
    let rec free_chain = function
      | None -> ()
      | Some (n : node) ->
          let next = Sched.Atomic.get n.next in
          if Simheap.is_live n.block then Simheap.free n.block;
          free_chain next
    in
    free_chain (Sched.Atomic.get t.head);
    Sched.Atomic.set t.head None;
    Sched.Atomic.set t.tail None;
    Array.iter
      (fun q ->
        Queue.iter (fun (n : node) -> if Simheap.is_live n.block then Simheap.free n.block) q;
        Queue.clear q)
      t.retired
end
