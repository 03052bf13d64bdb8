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

  type node = { value : int; next : link Atomic.t; prev : link Atomic.t; block : Simheap.block }
  and link = node option

  type t = {
    heap : Simheap.t;
    ann : Ident.t Padded.t; (* one announcement slot per thread *)
    retired : node Queue.t array; (* owner-thread only *)
    head : link Atomic.t;
    tail : link Atomic.t;
    max_threads : int;
  }

  type ctx = { t : t; pid : int }

  let scan_threshold t = (2 * t.max_threads) + 8

  let mk_node t v prev =
    {
      value = v;
      next = Atomic.make None;
      prev = Atomic.make prev;
      block = Simheap.alloc t.heap;
    }

  let create ~max_threads () =
    let heap = Simheap.create ~name:"dlq-original" () in
    let t =
      {
        heap;
        ann = Padded.create max_threads Ident.null;
        retired = Array.init max_threads (fun _ -> Queue.create ());
        head = Atomic.make None;
        tail = Atomic.make None;
        max_threads;
      }
    in
    let dummy = mk_node t min_int None in
    Atomic.set t.head (Some dummy);
    Atomic.set t.tail (Some dummy);
    t

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some n -> Ident.of_val n

  (* Announce-and-revalidate on the head or tail anchor. *)
  let protect c (anchor : link Atomic.t) =
    let rec go () =
      let l = Atomic.get anchor in
      Padded.set c.t.ann c.pid (ident_of l);
      let l' = Atomic.get anchor in
      if Ident.equal (ident_of l') (ident_of l) then l else go ()
    in
    go ()

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
          || is_announced (ident_of (Atomic.get n.prev))
          || is_announced (ident_of (Atomic.get n.next))
        in
        if held then Queue.push n keep else Simheap.free n.block)
      t.retired.(c.pid);
    Queue.clear t.retired.(c.pid);
    Queue.transfer keep t.retired.(c.pid)

  let retire c n =
    Queue.push n c.t.retired.(c.pid);
    if Queue.length c.t.retired.(c.pid) >= scan_threshold c.t then scan c

  let rec cas_link cell expected desired =
    let cur = Atomic.get cell in
    let eq =
      match (cur, expected) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    if not eq then false
    else if Atomic.compare_and_set cell cur desired then true
    else cas_link cell expected desired

  let enqueue c v =
    let nu = mk_node c.t v None in
    let rec loop () =
      match protect c c.t.tail with
      | None -> failwith "dl_queue_manual: null tail"
      | Some ltail ->
          let lt = deref ltail in
          Atomic.set nu.prev (Some ltail);
          (* Help the previous enqueuer: lprev is protected by
             adjacency to the announced ltail. *)
          (match Atomic.get lt.prev with
          | Some lprev when Atomic.get (deref lprev).next = None ->
              ignore (cas_link (deref lprev).next None (Some ltail))
          | _ -> ());
          if cas_link c.t.tail (Some ltail) (Some nu) then begin
            ignore (cas_link lt.next None (Some nu));
            unannounce c
          end
          else loop ()
    in
    loop ()

  let dequeue c =
    let rec loop () =
      match protect c c.t.head with
      | None -> failwith "dl_queue_manual: null head"
      | Some lhead -> (
          let h = deref lhead in
          match Atomic.get h.next with
          | None ->
              unannounce c;
              None
          | Some lnext ->
              if cas_link c.t.head (Some lhead) (Some lnext) then begin
                (* lnext is protected by adjacency to lhead, which we
                   still announce. *)
                let v = (deref lnext).value in
                retire c lhead;
                unannounce c;
                Some v
              end
              else loop ())
    in
    loop ()

  let flush c = scan c
  let live_objects t = Simheap.live t.heap
  let retired_backlog t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.retired

  let teardown t =
    let rec free_chain = function
      | None -> ()
      | Some (n : node) ->
          let next = Atomic.get n.next in
          if Simheap.is_live n.block then Simheap.free n.block;
          free_chain next
    in
    free_chain (Atomic.get t.head);
    Atomic.set t.head None;
    Atomic.set t.tail None;
    Array.iter
      (fun q ->
        Queue.iter (fun (n : node) -> if Simheap.is_live n.block then Simheap.free n.block) q;
        Queue.clear q)
      t.retired
end
