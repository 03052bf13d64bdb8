(* rc-lint fixture: retire with no dominating CAS — the node may
   still be reachable from the structure. Two identical sites, the
   first annotated: suppression must silence exactly that one. Never
   compiled. *)
let remove_annotated c node =
  let next = next_of node in
  mark node;
  retire c node;
  next
[@@rc_lint.allow "R3"]

let remove c node =
  let next = next_of node in
  mark node;
  retire c node;
  next
