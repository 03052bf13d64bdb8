(* Full benchmark harness: runs every figure row of the experiment
   table (Workload.Table) — the paper's evaluation (§5) plus our
   ablations.

   Environment knobs (all optional; a malformed value exits 2):
     BENCH_THREADS  — comma-separated sweep of positive counts (default "1,2,4")
     BENCH_DURATION — positive seconds per data point (default 0.25)
     BENCH_SCALE    — divide structure sizes by this positive factor (default 1)

   The perf-trajectory matrix is `cdrc-bench perf`. See DESIGN.md §4
   for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

(* [parse] the variable [name], or [default] when it is unset. *)
let env name ~default ~expect parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
          Printf.eprintf "%s=%S: expected %s\n%!" name v expect;
          exit 2)

let positive zero of_string v =
  Option.bind (of_string (String.trim v)) (fun x -> if x > zero then Some x else None)

let threads =
  env "BENCH_THREADS" ~default:[ 1; 2; 4 ] ~expect:"a comma-separated list of positive integers"
    (fun v ->
      let ts = List.map (positive 0 int_of_string_opt) (String.split_on_char ',' v) in
      if List.mem None ts then None else Some (List.filter_map Fun.id ts))

let duration =
  env "BENCH_DURATION" ~default:0.25 ~expect:"a positive number of seconds"
    (positive 0. float_of_string_opt)

let scale = env "BENCH_SCALE" ~default:1 ~expect:"a positive integer" (positive 0 int_of_string_opt)

module T = Workload.Table

let () =
  Format.printf
    "cdrc_repro benchmark suite — threads=%s duration=%.2fs scale=%d (1 = paper sizes)@."
    (String.concat "," (List.map string_of_int threads))
    duration scale;
  Format.printf "host: %d recommended domains@." (Domain.recommended_domain_count ());
  (* Any worker death anywhere in the suite fails it. *)
  let status =
    List.fold_left (fun st row -> max st (T.run ~threads ~duration ~scale row)) 0 T.figures
  in
  Format.printf "done.@.";
  exit status
