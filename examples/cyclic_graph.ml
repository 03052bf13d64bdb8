(* Cycle collection: the classical reference-counting weakness (paper
   §4) demonstrated on a tree with parent pointers.

   Version A stores parent links as strong pointers -> every
   parent/child pair is a strong cycle -> nothing is ever reclaimed.
   Version B stores parent links as atomic weak pointers (the paper's
   recommended pattern for back/parent edges) -> dropping the root
   reclaims the whole structure.

   Run with:  dune exec examples/cyclic_graph.exe *)

module R = Cdrc.Make (Smr.Ebr)

let fanout = 4
let depth = 5

(* ---- Version A: strong parent links (leaks) ---- *)
module Strong_tree = struct
  type node = { id : int; children : node R.asp array; parent : node R.asp }

  let destroy th (n : node) =
    Array.iter (R.Asp.clear th) n.children;
    R.Asp.clear th n.parent

  let counter = ref 0

  let rec build th d (parent : node R.ptr) =
    incr counter;
    let n =
      R.Shared.make th ~destroy
        {
          id = !counter;
          children = Array.init fanout (fun _ -> R.Asp.make_null ());
          parent = R.Asp.make th parent;
        }
    in
    if d > 1 then
      Array.iter
        (fun cell ->
          let child = build th (d - 1) (R.Shared.ptr n) in
          R.Asp.store th cell (R.Shared.ptr child);
          R.Shared.drop th child)
        (R.Shared.get n).children;
    n
end

(* ---- Version B: weak parent links (collects) ---- *)
module Weak_tree = struct
  type node = { id : int; children : node R.asp array; parent : node R.awp }

  let destroy th (n : node) =
    Array.iter (R.Asp.clear th) n.children;
    R.Awp.clear th n.parent

  let counter = ref 0

  let rec build th d (parent : node R.ptr) =
    incr counter;
    let n =
      R.Shared.make th ~destroy
        {
          id = !counter;
          children = Array.init fanout (fun _ -> R.Asp.make_null ());
          parent = R.Awp.make th parent;
        }
    in
    if d > 1 then
      Array.iter
        (fun cell ->
          let child = build th (d - 1) (R.Shared.ptr n) in
          R.Asp.store th cell (R.Shared.ptr child);
          R.Shared.drop th child)
        (R.Shared.get n).children;
    n

  (* Walk down the first children to a leaf through strong loads. *)
  let rec leftmost th (n : node R.shared) =
    let child = R.Asp.load th (R.Shared.get n).children.(0) in
    if R.Shared.is_null child then begin
      R.Shared.drop th child;
      n
    end
    else begin
      R.Shared.drop th n;
      leftmost th child
    end

  (* Walk up from any node to the root through weak upgrades. *)
  let rec root_of th (n : node R.shared) =
    let w = R.Awp.load th (R.Shared.get n).parent in
    let up = R.Weak.lock th w in
    R.Weak.drop th w;
    if R.Shared.is_null up then begin
      R.Shared.drop th up;
      n
    end
    else begin
      R.Shared.drop th n;
      root_of th up
    end
end

(* The section bodies: top-level functions of the thread and the tree's
   depth, which [R.critically th f th depth] runs in the thread's
   critical section. *)
let build_and_drop th d =
  let root = Strong_tree.build th d R.Ptr.null in
  R.Shared.drop th root

(* Navigate: pick the leftmost leaf, climb back to the root. *)
let build_and_climb th d =
  let root = Weak_tree.build th d R.Ptr.null in
  let leaf = Weak_tree.leftmost th (R.Shared.copy th root) in
  let top = Weak_tree.root_of th (R.Shared.copy th leaf) in
  Printf.printf "weak parent links: leaf id=%d climbs to root id=%d\n"
    (R.Shared.get leaf).Weak_tree.id (R.Shared.get top).Weak_tree.id;
  R.Shared.drop th top;
  R.Shared.drop th leaf;
  R.Shared.drop th root

let () =
  (* A: strong cycles leak. *)
  let rt_a = R.create ~max_threads:1 () in
  let th_a = R.thread rt_a 0 in
  R.critically th_a build_and_drop th_a depth;
  R.quiesce rt_a;
  Printf.printf "strong parent links: built %d nodes, %d still live after dropping root \
                 (leaked: reference cycles)\n"
    !Strong_tree.counter (R.live_objects rt_a);

  (* B: weak parent links collect. *)
  let rt_b = R.create ~max_threads:1 () in
  let th_b = R.thread rt_b 0 in
  R.critically th_b build_and_climb th_b depth;
  R.quiesce rt_b;
  Printf.printf "weak parent links: built %d nodes, %d still live after dropping root \
                 (collected)\n"
    !Weak_tree.counter (R.live_objects rt_b);
  assert (R.live_objects rt_b = 0);
  assert (R.live_objects rt_a = !Strong_tree.counter)
