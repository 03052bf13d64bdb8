(* The one measurement loop; see harness.mli. *)

type errors = (string * int) list

type result = { ops : int; elapsed : float; mops : float; errors : errors }

let kind_of_exn = function
  | Simheap.Use_after_free _ -> "Use_after_free"
  | Simheap.Double_free _ -> "Double_free"
  | e -> Printexc.exn_slot_name e

let tally kinds =
  List.sort_uniq compare kinds
  |> List.map (fun k -> (k, List.length (List.filter (( = ) k) kinds)))

let count errors kind = Option.value ~default:0 (List.assoc_opt kind errors)
let total errors = List.fold_left (fun acc (_, n) -> acc + n) 0 errors

(* Run [worker pid continue]; a death is printed under [name] and
   returned by kind. *)
let attempt ~name worker pid continue =
  match worker pid continue with
  | () -> None
  | exception e ->
      Printf.eprintf "[%s] worker %d died: %s\n%!" name pid (Printexc.to_string e);
      Some (kind_of_exn e)

let result ~ops ~elapsed deaths =
  {
    ops;
    elapsed;
    mops = Repro_util.Stats.throughput_mops ~ops ~seconds:elapsed;
    errors = tally (List.filter_map Fun.id deaths);
  }

(* Call [f] with the elapsed time and the ops [ops] reports every
   [period] seconds, until [deadline]. *)
let rec sample_until ~t0 ~deadline period f ops =
  let now = Unix.gettimeofday () in
  if now < deadline then begin
    f ~elapsed:(now -. t0) ~ops:(ops ());
    Unix.sleepf (min period (deadline -. now));
    sample_until ~t0 ~deadline period f ops
  end

let run ~name ~threads ~duration ?sample worker =
  let stop = Atomic.make false in
  (* Slot [pid - 1] holds the op count worker [pid] last reported;
     batch-by-batch, so the sampler sees a live total. *)
  let reported = Padded.create threads 0 in
  let deaths = Array.make threads None in
  let body pid () =
    let continue n =
      Padded.set reported (pid - 1) n;
      not (Atomic.get stop)
    in
    deaths.(pid - 1) <- attempt ~name worker pid continue
  in
  let reported_ops () = Padded.fold ( + ) 0 reported in
  let t0 = Unix.gettimeofday () in
  let domains = List.init threads (fun i -> Domain.spawn (body (i + 1))) in
  (match sample with
  | None -> Unix.sleepf duration
  | Some (period, f) -> sample_until ~t0 ~deadline:(t0 +. duration) period f reported_ops);
  Atomic.set stop true;
  List.iter Domain.join domains;
  result ~ops:(reported_ops ()) ~elapsed:(Unix.gettimeofday () -. t0) (Array.to_list deaths)

let cell_name scheme structure threads = Printf.sprintf "%s/%s/%d" scheme structure threads

let pp_errors ppf errors =
  Format.pp_print_list ~pp_sep:Format.pp_print_space
    (fun ppf (k, n) -> Format.fprintf ppf "%s×%d" k n)
    ppf errors

let status cells =
  let failed = List.filter (fun (_, errors) -> errors <> []) cells in
  List.iter (fun (cell, errors) -> Format.eprintf "%s: %a@." cell pp_errors errors) failed;
  if failed = [] then 0 else 1
