(** Ramalhete–Correia's queue over {e lock-based} atomic shared/weak
    pointers — the stand-in for the commercial just::thread library in
    the paper's Fig 12 (DESIGN.md S3; the closed-source original is
    unavailable, so we substitute the same "correct general-purpose
    atomic smart pointers that collapse under contention" profile,
    implemented in the style of Microsoft's lock-based STL
    atomic<shared_ptr>).

    Every pointer cell carries a mutex; loads, stores, and CASes take
    it. Reference counts are plain atomic integers (CAS-loop
    increment-if-not-zero for weak upgrades). Because a load holds the
    cell lock while bumping the count, no deferral machinery is needed
    at all — and every reader serializes on the head/tail cells, which
    is exactly why this design is an order of magnitude slower at high
    thread counts. *)

module Make () = struct
  module Counter = Sticky.Casloop_counter

  let name = "locked-weak"

  type cb = {
    node : node;
    strong : Counter.t;
    weak : Counter.t;
    block : Simheap.block;
    mutable disposed : bool;
  }

  and node = { value : int; next : cell; prev : cell (* weak *) }
  and cell = { m : Mutex.t; mutable ptr : cb option }

  type t = { heap : Simheap.t; head : cell; tail : cell }
  type ctx = { t : t; pending : (unit -> unit) Queue.t; mutable draining : bool }

  let mk_cell p = { m = Mutex.create (); ptr = p }

  (* ---- counts; destruction cascades run through the ctx queue so a
     dispose never runs while a cell lock is held. ---- *)

  let rec dec_strong c cb =
    if Counter.decrement cb.strong then
      Queue.push
        (fun () ->
          assert (not cb.disposed);
          cb.disposed <- true;
          (* destroy: release the node's own references *)
          clear_strong_cell c cb.node.next;
          clear_weak_cell c cb.node.prev;
          dec_weak c cb)
        c.pending

  and dec_weak _c cb = if Counter.decrement cb.weak then Simheap.free cb.block

  and clear_strong_cell c cell =
    Mutex.lock cell.m;
    let old = cell.ptr in
    cell.ptr <- None;
    Mutex.unlock cell.m;
    match old with Some cb -> dec_strong c cb | None -> ()

  and clear_weak_cell c cell =
    Mutex.lock cell.m;
    let old = cell.ptr in
    cell.ptr <- None;
    Mutex.unlock cell.m;
    match old with Some cb -> dec_weak c cb | None -> ()

  let drain c =
    if not c.draining then begin
      c.draining <- true;
      while not (Queue.is_empty c.pending) do
        (Queue.pop c.pending) ()
      done;
      c.draining <- false
    end

  (* ---- lock-based atomic shared pointer ops ---- *)

  (* load: the cell lock makes ptr-read + strong-increment atomic, so
     the count can never race to zero in between. *)
  let load_shared cell =
    Mutex.lock cell.m;
    let p = cell.ptr in
    (match p with
    | Some cb ->
        if not (Counter.increment_if_not_zero cb.strong) then
          failwith "dl_queue_locked: increment of dead count under lock"
    | None -> ());
    Mutex.unlock cell.m;
    p

  let store_shared c cell desired =
    (match desired with
    | Some cb -> ignore (Counter.increment_if_not_zero cb.strong)
    | None -> ());
    Mutex.lock cell.m;
    let old = cell.ptr in
    cell.ptr <- desired;
    Mutex.unlock cell.m;
    (match old with Some cb -> dec_strong c cb | None -> ());
    drain c

  let cas_shared c cell ~expected ~desired =
    Mutex.lock cell.m;
    let eq =
      match (cell.ptr, expected) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    if eq then begin
      (match desired with
      | Some cb -> ignore (Counter.increment_if_not_zero cb.strong)
      | None -> ());
      let old = cell.ptr in
      cell.ptr <- desired;
      Mutex.unlock cell.m;
      (match old with Some cb -> dec_strong c cb | None -> ());
      drain c;
      true
    end
    else begin
      Mutex.unlock cell.m;
      false
    end

  let store_weak c cell desired =
    (match desired with
    | Some cb -> ignore (Counter.increment_if_not_zero cb.weak)
    | None -> ());
    Mutex.lock cell.m;
    let old = cell.ptr in
    cell.ptr <- desired;
    Mutex.unlock cell.m;
    (match old with Some cb -> dec_weak c cb | None -> ());
    drain c

  (* weak load + upgrade in one step: lock the cell, bump weak, then
     try the strong upgrade via CAS-loop increment-if-not-zero. *)
  let upgrade_weak cell =
    Mutex.lock cell.m;
    let p = cell.ptr in
    let r =
      match p with
      | Some cb when Counter.increment_if_not_zero cb.strong -> Some cb
      | _ -> None
    in
    Mutex.unlock cell.m;
    r

  (* ---- the queue (Fig 10 shape) ---- *)

  let alloc_node t v =
    {
      node = { value = v; next = mk_cell None; prev = mk_cell None };
      strong = Counter.create 1;
      weak = Counter.create 1;
      block = Simheap.alloc t.heap;
      disposed = false;
    }

  let create ~max_threads:_ () =
    let heap = Simheap.create ~name:"dlq-locked" () in
    let t = { heap; head = mk_cell None; tail = mk_cell None } in
    let dummy = alloc_node t min_int in
    (* head and tail each take a strong count unit... *)
    ignore (Counter.increment_if_not_zero dummy.strong);
    ignore (Counter.increment_if_not_zero dummy.strong);
    t.head.ptr <- Some dummy;
    t.tail.ptr <- Some dummy;
    (* ...and the construction reference is dropped. *)
    ignore (Counter.decrement dummy.strong);
    t

  let ctx t _pid = { t; pending = Queue.create (); draining = false }

  (* Swing the tail to [nu], retrying by tail call. *)
  let rec swing_tail c nu =
    match load_shared c.t.tail with
    | None -> failwith "dl_queue_locked: null tail"
    | Some ltail ->
        store_weak c nu.node.prev (Some ltail);
        (* Help the previous enqueuer. *)
        (match upgrade_weak ltail.node.prev with
        | Some lprev ->
            (match load_shared lprev.node.next with
            | None -> ignore (cas_shared c lprev.node.next ~expected:None ~desired:(Some ltail))
            | Some nx -> dec_strong c nx);
            dec_strong c lprev;
            drain c
        | None -> ());
        if cas_shared c c.t.tail ~expected:(Some ltail) ~desired:(Some nu) then begin
          ignore (cas_shared c ltail.node.next ~expected:None ~desired:(Some nu));
          dec_strong c ltail;
          drain c
        end
        else begin
          dec_strong c ltail;
          drain c;
          swing_tail c nu
        end

  let enqueue c v =
    let nu = alloc_node c.t v in
    swing_tail c nu;
    dec_strong c nu;
    drain c

  let rec dequeue c =
    match load_shared c.t.head with
    | None -> failwith "dl_queue_locked: null head"
    | Some lhead -> (
        match load_shared lhead.node.next with
        | None ->
            dec_strong c lhead;
            drain c;
            None
        | Some lnext ->
            if cas_shared c c.t.head ~expected:(Some lhead) ~desired:(Some lnext) then begin
              let v = lnext.node.value in
              dec_strong c lnext;
              dec_strong c lhead;
              drain c;
              Some v
            end
            else begin
              dec_strong c lnext;
              dec_strong c lhead;
              drain c;
              dequeue c
            end)

  let flush c = drain c
  let live_objects t = Simheap.live t.heap

  (* Reclamation is immediate once the per-ctx drain runs; nothing is
     parked cross-thread, so the backlog a sampler could observe is 0. *)
  let retired_backlog _ = 0

  let teardown t =
    let c = { t; pending = Queue.create (); draining = false } in
    clear_strong_cell c t.head;
    clear_strong_cell c t.tail;
    drain c
end
