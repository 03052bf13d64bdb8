(* The perf-trajectory regression gate (DESIGN.md §11): compare two
   BENCH_*.json summaries and exit 1 on any unallowlisted regression.

     tools/bench_check BASE.json CAND.json
     tools/bench_check                      # two highest BENCH_PR<N>.json in .

   All comparison semantics live in [Obs.Perf.compare_summaries]; this
   is only argument parsing, file discovery and rendering. Exit codes:
   0 = no regression, 1 = regression, 2 = usage or parse error. *)

let usage =
  "usage: bench_check [BASE.json CAND.json] [options]\n\
   With no files: compares the two highest-numbered BENCH_PR<N>.json\n\
   in the current directory (lower N = baseline, higher = candidate).\n\
   options:\n\
  \  --throughput-tol PCT   max throughput drop per cell (default 15)\n\
  \  --latency-tol PCT      max p99 retire->free growth per cell (default 25)\n\
  \  --allow KEY[,KEY...]   allowlist cell keys or '/'-prefixes\n\
  \                         (e.g. 'RCEBR/hash/4' or 'RCEBR'); repeatable"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_check: " ^ m); exit 2) fmt

let () =
  let files = ref [] in
  let ttol = ref 15.0 in
  let ltol = ref 25.0 in
  let allow = ref [] in
  let float_arg name v =
    match float_of_string_opt v with Some f -> f | None -> die "%s: not a number: %s" name v
  in
  let rec parse = function
    | [] -> ()
    | "--throughput-tol" :: v :: rest ->
        ttol := float_arg "--throughput-tol" v;
        parse rest
    | "--latency-tol" :: v :: rest ->
        ltol := float_arg "--latency-tol" v;
        parse rest
    | "--allow" :: v :: rest ->
        allow := !allow @ String.split_on_char ',' v;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := !files @ [ f ];
        parse rest
    | f :: _ -> die "unknown option %s\n%s" f usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base_file, cand_file =
    match !files with
    | [ b; c ] -> (b, c)
    | [] -> (
        let found = List.rev (Obs.Perf.trajectory (Array.to_list (Sys.readdir "."))) in
        match found with
        | newest :: previous :: _ -> (previous, newest)
        | _ -> die "found %d BENCH_PR<N>.json in .; need two files (or pass them explicitly)"
                 (List.length found))
    | _ -> die "expected exactly two files\n%s" usage
  in
  let load f =
    match Obs.Perf.load_file f with
    | Ok s -> s
    | Error e -> die "%s: %s" f e
  in
  let base = load base_file in
  let cand = load cand_file in
  Printf.printf "baseline:  %s (%s, sha %s)\ncandidate: %s (%s, sha %s)\n" base_file
    base.Obs.Perf.s_meta.Obs.Perf.m_label base.Obs.Perf.s_meta.Obs.Perf.m_git_sha cand_file
    cand.Obs.Perf.s_meta.Obs.Perf.m_label cand.Obs.Perf.s_meta.Obs.Perf.m_git_sha;
  let regs, compared =
    Obs.Perf.compare_summaries ~throughput_tol:!ttol ~latency_tol:!ltol ~allow:!allow base
      cand
  in
  List.iter (fun r -> Format.printf "%a@." Obs.Perf.pp_regression r) regs;
  let allowed = List.length (List.filter (fun r -> r.Obs.Perf.r_allowed) regs) in
  Printf.printf "compared %d cells: %d regressions (%d allowlisted)\n" compared
    (List.length regs) allowed;
  if compared = 0 then die "no common cells between the two summaries";
  exit (if Obs.Perf.failed regs then 1 else 0)
