(** Happens-before race & pointer-lifetime sanitizer (DESIGN.md §14).

    One monitor instance checks one explored schedule. Two event feeds
    drive it:

    - every [Sched.Atomic] operation of the scenario's fibers, via the
      {!Sched.interpose} tracer installed by {!create} — these build the
      happens-before relation (FastTrack-style: each atomic op on a
      location is treated as an acquire+release on that location, which
      is exactly the seq-cst semantics of [Stdlib.Atomic]);
    - protocol events ([register]/[deref]/[acquire]/[retire]/[free] and
      the [rc_*] family), reported explicitly by the sanitizing scenario
      wrappers in [lib/explore] — these drive the pointer-lifetime
      typestate and the reference-count ledger.

    A violation raises {!Violation} at the offending event, inside the
    fiber that performed it, so the controller surfaces it exactly like
    any other oracle failure: with the executed schedule and a replay
    recipe.

    Contexts: a scenario with [n] fibers gets [n + 1] clock components;
    component [n] is the setup/oracle context (code running with
    [Sched.current_fiber () = -1]). Setup happens-before every fiber
    (fork edge, applied lazily at each fiber's first event), and the
    oracle context lazily joins every fiber's clock (it only runs while
    no fiber does). *)

exception Violation of string

let () =
  Printexc.register_printer (function Violation m -> Some m | _ -> None)

let violation fmt = Printf.ksprintf (fun m -> raise (Violation ("rc-race: " ^ m))) fmt
let who f = if f < 0 then "oracle" else Printf.sprintf "fiber %d" f

type ident_state =
  | Live
  | Retired of { r_fiber : int; r_step : int; r_clock : Vclock.t }
  | Freed of { fr_fiber : int; fr_step : int }

type deref_record = { d_fiber : int; d_step : int; d_clock : Vclock.t }
type rc_state = { mutable count : int; mutable died : bool }

type t = {
  n : int;  (** fibers; clock component [n] is the setup/oracle context *)
  clocks : Vclock.t array;  (** [n + 1] entries *)
  started : bool array;  (** fork edge from setup applied? *)
  locs : (int, Vclock.t) Hashtbl.t;  (** atomic-cell id -> last-sync clock *)
  idents : (int, ident_state) Hashtbl.t;
  derefs : (int, deref_record list) Hashtbl.t;
  guards : (int, int list) Hashtbl.t;  (** context -> announced idents (multiset) *)
  rc : (int, rc_state) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Contexts and clocks *)

let ctx_of m fiber = if fiber < 0 || fiber >= m.n then m.n else fiber

let clock_of m idx =
  if idx = m.n then begin
    (* The setup/oracle context only runs while no fiber does: before
       the run (all fiber clocks zero — the joins are no-ops) and after
       it (the check oracle logically follows every fiber). *)
    for i = 0 to m.n - 1 do
      Vclock.join m.clocks.(m.n) m.clocks.(i)
    done;
    m.clocks.(m.n)
  end
  else begin
    if not m.started.(idx) then begin
      (* fork edge: everything setup did happens-before the fiber *)
      Vclock.join m.clocks.(idx) m.clocks.(m.n);
      m.started.(idx) <- true
    end;
    m.clocks.(idx)
  end

let here m =
  let f = Sched.current_fiber () in
  let idx = ctx_of m f in
  (f, Sched.current_step (), idx, clock_of m idx)

(* ------------------------------------------------------------------ *)
(* The happens-before engine (tracer feed) *)

let on_op m (ev : Sched.op_event) =
  let idx = ctx_of m ev.op_fiber in
  let c = clock_of m idx in
  (* acquire: fold the location's last-sync clock into ours *)
  (match Hashtbl.find_opt m.locs ev.op_loc with
  | Some l -> Vclock.join c l
  | None -> ());
  (* release: publish our frontier at this location, then advance *)
  Hashtbl.replace m.locs ev.op_loc (Vclock.copy c);
  Vclock.tick c idx

let create ~fibers () =
  let n = fibers in
  let m =
    {
      n;
      clocks = Array.init (n + 1) (fun _ -> Vclock.make (n + 1));
      started = Array.make n false;
      locs = Hashtbl.create 64;
      idents = Hashtbl.create 64;
      derefs = Hashtbl.create 64;
      guards = Hashtbl.create 8;
      rc = Hashtbl.create 8;
    }
  in
  Sched.interpose (on_op m);
  m

(* ------------------------------------------------------------------ *)
(* Guards *)

let acquire m ~ident =
  let _, _, idx, _ = here m in
  let cur = Option.value ~default:[] (Hashtbl.find_opt m.guards idx) in
  Hashtbl.replace m.guards idx (ident :: cur)

let release m ~ident =
  let _, _, idx, _ = here m in
  let cur = Option.value ~default:[] (Hashtbl.find_opt m.guards idx) in
  let rec drop = function
    | [] -> []
    | x :: rest -> if x = ident then rest else x :: drop rest
  in
  Hashtbl.replace m.guards idx (drop cur)

let guarded m idx ident =
  match Hashtbl.find_opt m.guards idx with
  | None -> false
  | Some l -> List.mem ident l

(* ------------------------------------------------------------------ *)
(* Pointer-lifetime typestate *)

let register m ~ident = Hashtbl.replace m.idents ident Live

let state_of m ident =
  match Hashtbl.find_opt m.idents ident with
  | Some s -> s
  | None ->
      (* Lenient: an unregistered ident is treated as live from birth. *)
      Hashtbl.replace m.idents ident Live;
      Live

let deref m ~ident =
  let f, step, idx, c = here m in
  if idx <> m.n then begin
    (* Rule (a): a fiber may touch a retired block only under a guard
       covering it (the announcement is what holds eject back); a freed
       block is out of bounds, guard or no guard. *)
    (match state_of m ident with
    | Live -> ()
    | Retired r ->
        if not (guarded m idx ident) then
          if Vclock.leq r.r_clock c then
            violation
              "unprotected use of retired block #%d: %s (step %d) dereferences it \
               after its retire by %s (step %d), with no covering guard"
              ident (who f) step (who r.r_fiber) r.r_step
          else
            violation
              "unprotected read of retired block #%d: deref by %s (step %d) races \
               retire by %s (step %d) — no covering guard, no happens-before order"
              ident (who f) step (who r.r_fiber) r.r_step
    | Freed fr ->
        violation "use-after-free of block #%d: deref by %s (step %d), freed by %s (step %d)"
          ident (who f) step (who fr.fr_fiber) fr.fr_step);
    (* Record for rule (b): at free time every deref must be ordered
       before the free. *)
    let cur = Option.value ~default:[] (Hashtbl.find_opt m.derefs ident) in
    Hashtbl.replace m.derefs ident
      ({ d_fiber = f; d_step = step; d_clock = Vclock.copy c } :: cur)
  end

let retire m ~ident =
  let f, step, _, c = here m in
  (match state_of m ident with
  | Live -> ()
  | Retired r ->
      violation "double retire of block #%d: by %s (step %d), first by %s (step %d)"
        ident (who f) step (who r.r_fiber) r.r_step
  | Freed fr ->
      violation "retire of already-freed block #%d: by %s (step %d), freed by %s (step %d)"
        ident (who f) step (who fr.fr_fiber) fr.fr_step);
  Hashtbl.replace m.idents ident
    (Retired { r_fiber = f; r_step = step; r_clock = Vclock.copy c })

let free m ~ident =
  let f, step, idx, c = here m in
  (match state_of m ident with
  | Freed fr ->
      violation "double free of block #%d: by %s (step %d), first by %s (step %d)"
        ident (who f) step (who fr.fr_fiber) fr.fr_step
  | Live when idx <> m.n ->
      violation "block #%d freed by %s (step %d) without a preceding retire" ident
        (who f) step
  | Live | Retired _ -> ());
  (* Rule (b): every recorded protection interval (deref) must be
     ordered before the free — this is the paper's discipline stated as
     a happens-before check, and it is what the slot release → eject
     scan edges establish in the clean protocol. *)
  List.iter
    (fun d ->
      if not (Vclock.leq d.d_clock c) then
        violation
          "protection interval not ordered before free of block #%d: deref by %s \
           (step %d) does not happen-before the free by %s (step %d)"
          ident (who d.d_fiber) d.d_step (who f) step)
    (Option.value ~default:[] (Hashtbl.find_opt m.derefs ident));
  Hashtbl.replace m.idents ident (Freed { fr_fiber = f; fr_step = step })

(* ------------------------------------------------------------------ *)
(* Reference-count ledger (rule c) *)

let rc_register m ~ident ~count =
  Hashtbl.replace m.rc ident { count; died = false }

let rc_cell m ident =
  match Hashtbl.find_opt m.rc ident with
  | Some s -> s
  | None ->
      let s = { count = 0; died = false } in
      Hashtbl.replace m.rc ident s;
      s

let rc_incr m ~ident =
  let f, step, _, _ = here m in
  let s = rc_cell m ident in
  if s.died then
    violation "rc cell #%d incremented by %s (step %d) after its death credit was taken"
      ident (who f) step;
  s.count <- s.count + 1

let rc_decr m ~ident ~death =
  let f, step, _, _ = here m in
  let s = rc_cell m ident in
  s.count <- s.count - 1;
  if s.count < 0 then
    violation "duplicated decrement on rc cell #%d: decrement by %s (step %d) drops \
               the count to %d"
      ident (who f) step s.count;
  if death then begin
    if s.died then
      violation "duplicated death credit on rc cell #%d: taken again by %s (step %d)"
        ident (who f) step;
    s.died <- true
  end

(* ------------------------------------------------------------------ *)
(* Final oracle *)

let check m =
  Hashtbl.iter
    (fun ident (s : rc_state) ->
      if s.count < 0 then
        violation "rc cell #%d ends the run with negative count %d" ident s.count;
      if s.count = 0 && not s.died then
        violation
          "lost death credit on rc cell #%d: count reached 0 but no decrement \
           reported the death"
          ident;
      if s.died && s.count > 0 then
        violation "rc cell #%d death credit taken with %d references outstanding" ident
          s.count)
    m.rc
