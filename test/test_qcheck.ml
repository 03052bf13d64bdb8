(* Property-based tests (qcheck via QCheck_alcotest): laws of the
   pointer-view algebra, the retire queue against a list model, the
   padded array against a plain array model, RNG distribution
   properties, and random operation sequences on every data structure
   against Stdlib.Set. *)

module Q = QCheck2
module IntSet = Set.Make (Int)

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------- Ptr / slot algebra --------------------------- *)

module R = Cdrc.Make (Smr.Ebr)

(* A pool of control blocks to build views over. *)
let rt = R.create ~max_threads:1 ()
let th = R.thread rt 0
let pool = Array.init 8 (fun i -> R.Shared.make th i)

let ptr_gen =
  Q.Gen.(
    let* tag = int_range 0 3 in
    let* shape = int_range 0 8 in
    let base = if shape = 8 then R.Ptr.null else R.Shared.ptr pool.(shape) in
    return (R.Ptr.with_tag base tag))

let prop_with_tag_roundtrip =
  Q.Test.make ~name:"Ptr: tag (with_tag p g) = g" ~count:500
    Q.Gen.(pair ptr_gen (int_range 0 3))
    (fun (p, g) -> R.Ptr.tag (R.Ptr.with_tag p g) = g)

let prop_with_tag_preserves_object =
  Q.Test.make ~name:"Ptr: with_tag preserves object identity" ~count:500
    Q.Gen.(pair ptr_gen (int_range 0 3))
    (fun (p, g) -> R.Ptr.same_object (R.Ptr.with_tag p g) p)

let prop_mark_is_tag_bit0 =
  Q.Test.make ~name:"Ptr: is_marked = bit 0 of tag" ~count:500 ptr_gen (fun p ->
      R.Ptr.is_marked p = (R.Ptr.tag p land 1 <> 0))

let prop_with_mark_sets_bit0 =
  Q.Test.make ~name:"Ptr: with_mark touches only bit 0" ~count:500
    Q.Gen.(pair ptr_gen bool)
    (fun (p, m) ->
      let q = R.Ptr.with_mark p m in
      R.Ptr.is_marked q = m && R.Ptr.tag q land 2 = R.Ptr.tag p land 2)

let prop_equal_refines_same_object =
  Q.Test.make ~name:"Ptr: equal implies same_object" ~count:500
    Q.Gen.(pair ptr_gen ptr_gen)
    (fun (p, q) -> (not (R.Ptr.equal p q)) || R.Ptr.same_object p q)

let prop_null_laws =
  Q.Test.make ~name:"Ptr: null is unmarked and null" ~count:1 Q.Gen.unit (fun () ->
      R.Ptr.is_null R.Ptr.null
      && (not (R.Ptr.is_marked R.Ptr.null))
      && R.Ptr.is_null (R.Ptr.with_tag R.Ptr.null 3))

(* ------------------- Retire_queue vs list model ------------------- *)

type rq_op = Push of int | PopPrefix of int | FilterPop of int | Drain

let rq_op_gen =
  Q.Gen.(
    oneof
      [
        map (fun k -> Push k) (int_range 0 100);
        map (fun k -> PopPrefix k) (int_range 0 100);
        map (fun k -> FilterPop k) (int_range 0 100);
        return Drain;
      ])

let record k =
  let d = Smr.Deferred.of_fun (fun _ -> ()) in
  Smr.Deferred.set_meta d k;
  d

let rec metas d =
  match d with
  | Smr.Deferred.Nil -> []
  | Smr.Deferred.D _ -> Smr.Deferred.meta d :: metas (Smr.Deferred.next d)

let below threshold d = Smr.Deferred.meta d < threshold

(* The model's [take_while]. *)
let rec model_prefix t = function
  | m :: rest when m < t ->
      let a, b = model_prefix t rest in
      (m :: a, b)
  | rest -> ([], rest)

(* Every operation moves exactly the model's entries, in order, into the
   batch queue, and leaves the model's remainder in order. *)
let prop_retire_queue_model =
  Q.Test.make ~name:"Retire_queue matches list model" ~count:500
    Q.Gen.(list_size (int_range 0 40) rq_op_gen)
    (fun ops ->
      let q = Smr.Retire_queue.create () in
      let out = Smr.Retire_queue.create () in
      let model = ref [] in
      let moved expected =
        let got = metas (Smr.Retire_queue.take out) in
        got = expected
      in
      List.for_all
        (fun op ->
          match op with
          | Push k ->
              Smr.Retire_queue.push q (record k);
              model := !model @ [ k ];
              true
          | PopPrefix threshold ->
              Smr.Retire_queue.pop_prefix q ~into:out below threshold;
              let a, b = model_prefix threshold !model in
              model := b;
              moved a
          | FilterPop threshold ->
              Smr.Retire_queue.filter_pop q ~into:out below threshold;
              let a, b = List.partition (fun m -> m < threshold) !model in
              model := b;
              moved a
          | Drain ->
              let n = List.length !model in
              let got = metas (Smr.Retire_queue.take q) in
              let ok = got = !model && n = List.length got in
              model := [];
              ok)
        ops
      && Smr.Retire_queue.size q = List.length !model
      && metas (Smr.Retire_queue.take q) = !model)

(* ------------------- Padded array vs array model ------------------ *)

let prop_padded_model =
  Q.Test.make ~name:"Padded matches array model" ~count:300
    Q.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 50) (pair (int_range 0 7) (int_range 0 1000))))
    (fun (n, writes) ->
      let p = Padded.create n 0 in
      let a = Array.make n 0 in
      List.iter
        (fun (i, v) ->
          let i = i mod n in
          Padded.set p i v;
          a.(i) <- v)
        writes;
      Array.for_all Fun.id (Array.init n (fun i -> Padded.get p i = a.(i)))
      && Padded.fold ( + ) 0 p = Array.fold_left ( + ) 0 a)

(* ------------------- RNG ------------------------------------------ *)

let prop_rng_bounds =
  Q.Test.make ~name:"Rng.int stays in bounds" ~count:300
    Q.Gen.(pair (int_range 0 10_000) (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Repro_util.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Repro_util.Rng.int r bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_rng_next_nonneg =
  Q.Test.make ~name:"Rng.next is non-negative" ~count:300 Q.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = Repro_util.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 200 do
        if Repro_util.Rng.next r < 0 then ok := false
      done;
      !ok)

(* ------------------- data structures vs Set model ----------------- *)

type set_op = Insert of int | Remove of int | Contains of int | Range of int * int

let set_op_gen =
  Q.Gen.(
    let key = int_range 0 48 in
    oneof
      [
        map (fun k -> Insert k) key;
        map (fun k -> Remove k) key;
        map (fun k -> Contains k) key;
        map2 (fun a b -> Range (min a b, max a b)) key key;
      ])

let set_model_prop (module D : Ds.Set_intf.S) name =
  Q.Test.make ~name:(name ^ " matches Set model") ~count:60
    Q.Gen.(list_size (int_range 0 120) set_op_gen)
    (fun ops ->
      let d = D.create ~max_threads:1 () in
      let c = D.ctx d 0 in
      let model = ref IntSet.empty in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Insert k ->
                let e = not (IntSet.mem k !model) in
                model := IntSet.add k !model;
                D.insert c k = e
            | Remove k ->
                let e = IntSet.mem k !model in
                model := IntSet.remove k !model;
                D.remove c k = e
            | Contains k -> D.contains c k = IntSet.mem k !model
            | Range (lo, hi) ->
                let e =
                  IntSet.cardinal (IntSet.filter (fun k -> k >= lo && k < hi) !model)
                in
                D.range_query c lo hi = e)
          ops
      in
      let size_ok = D.size d = IntSet.cardinal !model in
      D.flush c;
      D.teardown d;
      ok && size_ok && D.live_objects d = 0)

module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module L_hp = Ds.Hm_list_manual.Make (Smr.Hp)
module Lr_hp = Ds.Hm_list_rc.Make (Cdrc.Make (Smr.Hp))
module H_hyaline = Ds.Hash_table_manual.Make (Smr.Hyaline)
module Hr_ibr = Ds.Hash_table_rc.Make (Cdrc.Make (Smr.Ibr))
module T_he = Ds.Nm_tree_manual.Make (Smr.Hazard_eras)
module Tr_hyaline = Ds.Nm_tree_rc.Make (Cdrc.Make (Smr.Hyaline))

(* ------------------- queue vs FIFO model --------------------------- *)

type q_op = Enq of int | Deq

let q_op_gen =
  Q.Gen.(oneof [ map (fun v -> Enq v) (int_range 0 1000); return Deq ])

let queue_model_prop (module Qu : Ds.Queue_intf.S) name =
  Q.Test.make ~name:(name ^ " matches FIFO model") ~count:80
    Q.Gen.(list_size (int_range 0 150) q_op_gen)
    (fun ops ->
      let q = Qu.create ~max_threads:1 () in
      let c = Qu.ctx q 0 in
      let model = Queue.create () in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Enq v ->
                Qu.enqueue c v;
                Queue.push v model;
                true
            | Deq -> Qu.dequeue c = Queue.take_opt model)
          ops
      in
      Qu.flush c;
      Qu.teardown q;
      ok && Qu.live_objects q = 0)

module Q_rc_he = Ds.Dl_queue_rc.Make (Cdrc.Make (Smr.Hazard_eras))
module Q_orig = Ds.Dl_queue_manual.Make ()
module Q_lock = Ds.Dl_queue_locked.Make ()

let () =
  Alcotest.run "qcheck"
    [
      ( "ptr algebra",
        List.map to_alcotest
          [
            prop_with_tag_roundtrip;
            prop_with_tag_preserves_object;
            prop_mark_is_tag_bit0;
            prop_with_mark_sets_bit0;
            prop_equal_refines_same_object;
            prop_null_laws;
          ] );
      ( "infrastructure",
        List.map to_alcotest
          [ prop_retire_queue_model; prop_padded_model; prop_rng_bounds; prop_rng_next_nonneg ]
      );
      ( "sets vs model",
        List.map to_alcotest
          [
            set_model_prop (module L_ebr) "list/EBR";
            set_model_prop (module L_hp) "list/HP";
            set_model_prop (module Lr_hp) "list/RCHP";
            set_model_prop (module H_hyaline) "hash/Hyaline";
            set_model_prop (module Hr_ibr) "hash/RCIBR";
            set_model_prop (module T_he) "tree/HE";
            set_model_prop (module Tr_hyaline) "tree/RCHyaline";
          ] );
      ( "queues vs model",
        List.map to_alcotest
          [
            queue_model_prop (module Q_rc_he) "queue/RCHE-weak";
            queue_model_prop (module Q_orig) "queue/Original";
            queue_model_prop (module Q_lock) "queue/locked";
          ] );
    ]
