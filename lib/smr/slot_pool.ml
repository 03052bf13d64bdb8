(* [stack.(0 .. top - 1)] are the free slots, the next one to hand out
   on top, and [free.(s)] says whether slot [s] is among them; [some.(s)]
   is the one [Some s] block [take] returns. The pool is its owner's
   alone, in blocks of its own. *)
type t = {
  stack : int array;
  free : bool array;
  mutable top : int;
  some : int option array;
}

let reset p =
  let k = Array.length p.stack in
  for i = 0 to k - 1 do
    p.stack.(i) <- k - 1 - i
  done;
  Array.fill p.free 0 k true;
  p.top <- k

let create k =
  let p =
    { stack = Array.make k 0; free = Array.make k true; top = 0; some = Array.init k Option.some }
  in
  reset p;
  p

let take p =
  if p.top = 0 then None
  else begin
    p.top <- p.top - 1;
    let s = p.stack.(p.top) in
    p.free.(s) <- false;
    p.some.(s)
  end

let give p s =
  if not p.free.(s) then begin
    p.free.(s) <- true;
    p.stack.(p.top) <- s;
    p.top <- p.top + 1
  end
