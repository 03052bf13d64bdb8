open Deferred

type t = {
  mutable head : Deferred.t;
  mutable tail : Deferred.t;
  mutable size : int;
  mutable since_scan : int;
}

let create () = { head = Nil; tail = Nil; size = 0; since_scan = 0 }
let[@inline] size t = t.size
let[@inline] is_empty t = t.size = 0

let[@inline] push t d =
  (match t.tail with Nil -> t.head <- d | D r -> r.next <- d);
  t.tail <- d;
  t.size <- t.size + 1;
  t.since_scan <- t.since_scan + 1

let[@inline] due t ~every =
  if t.since_scan >= every then begin
    t.since_scan <- 0;
    true
  end
  else false

(* A popped record is detached: a record promoted while it waited would
   otherwise keep its successors alive through its link, dead or not,
   and the next minor collection would promote them all. *)
let[@inline] pop t =
  match t.head with
  | Nil -> Nil
  | D r as d ->
      let rest = r.next in
      t.head <- rest;
      (match rest with
      | Nil -> t.tail <- Nil
      | D _ -> r.next <- Nil);
      t.size <- t.size - 1;
      d

(* Append the chain [first .. last] of [n] records ([last]'s link is
   [Nil]). *)
let append t first last n =
  (match t.tail with Nil -> t.head <- first | D r -> r.next <- first);
  t.tail <- last;
  t.size <- t.size + n

(* Walk a chain whose records before [d] number [n]: make its last
   record the tail and return the chain's length. *)
let rec seal t d n =
  match d with
  | D { next = Nil; _ } ->
      t.tail <- d;
      n + 1
  | D r -> seal t r.next (n + 1)
  | Nil -> n

let splice t chain =
  match chain with
  | Nil -> 0
  | D _ ->
      (match t.tail with Nil -> t.head <- chain | D r -> r.next <- chain);
      let n = seal t chain 0 in
      t.size <- t.size + n;
      n

let take t =
  let d = t.head in
  t.head <- Nil;
  t.tail <- Nil;
  t.size <- 0;
  d

(* Close the moved chain [oh .. ot] of [n] records and hand it to
   [into]. *)
let close_moved t ~into oh ot n =
  if n > 0 then begin
    (match ot with D ({ next = D _; _ } as r) -> r.next <- Nil | D _ | Nil -> ());
    t.size <- t.size - n;
    append into oh ot n
  end

(* [d] onwards: [prev] is the last record moved so far (the one before
   [d]), [n] how many. Stops at the first record [safe] rejects. *)
let rec cut_prefix t ~into safe env n prev d =
  match d with
  | D r when safe env d -> cut_prefix t ~into safe env (n + 1) d r.next
  | D _ | Nil ->
      if n > 0 then begin
        let first = t.head in
        t.head <- d;
        (match d with Nil -> t.tail <- Nil | D _ -> ());
        close_moved t ~into first prev n
      end

let pop_prefix t ~into safe env = cut_prefix t ~into safe env 0 Nil t.head

(* [d] onwards: [kt] is the last record kept so far, [oh .. ot] the [n]
   records moved so far. A link is written only where the kept and the
   moved runs alternate: a run of consecutive records that go the same
   way keeps its links. *)
let rec filter_from t ~into safe env kt oh ot n d =
  match d with
  | Nil ->
      if n > 0 then begin
        (match kt with
        | Nil -> t.head <- Nil
        | D ({ next = D _; _ } as k) -> k.next <- Nil
        | D _ -> ());
        t.tail <- kt;
        close_moved t ~into oh ot n
      end
  | D r ->
      if safe env d then
        match ot with
        | Nil -> filter_from t ~into safe env kt d d 1 r.next
        | D o ->
            if o.next != d then o.next <- d;
            filter_from t ~into safe env kt oh d (n + 1) r.next
      else begin
        (match kt with
        | Nil -> if t.head != d then t.head <- d
        | D k -> if k.next != d then k.next <- d);
        filter_from t ~into safe env d oh ot n r.next
      end

let filter_pop t ~into safe env = filter_from t ~into safe env Nil Nil Nil 0 t.head
