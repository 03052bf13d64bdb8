(* Versioned, machine-readable perf summaries (DESIGN.md §11).

   One summary is one point on the repo's perf trajectory: per
   scheme×structure×thread-count throughput, retire→free latency
   quantiles, eject batch-size quantiles and peak live/backlog memory,
   plus the exact atomic-op profiles of the lock-free cores measured
   in a counting window ([Sched.Atomic.counting]). `cdrc-bench perf` emits
   one per PR as `BENCH_PR<N>.json`; `tools/bench_check` compares two
   of them and gates regressions.

   The bytes go through [Json], the one codec, so the comparator, the
   tests and the CLI all read the same schema without pulling a JSON
   library into the build. *)

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Schema *)

type quantiles = { q_count : int; q_p50 : int; q_p99 : int; q_p999 : int }

let quantiles_empty = { q_count = 0; q_p50 = 0; q_p99 = 0; q_p999 = 0 }

(** Quantiles of merged [Histo] bucket counts — the same nearest-rank
    computation [Histo.percentiles] performs, over an externally
    accumulated bucket array (so callers can merge several histograms
    before extracting). *)
let quantiles_of_counts counts =
  let count = Array.fold_left ( + ) 0 counts in
  if count = 0 then quantiles_empty
  else
    let p x = Option.value ~default:0 (Histo.percentile_of_counts counts x) in
    { q_count = count; q_p50 = p 50.0; q_p99 = p 99.0; q_p999 = p 99.9 }

type cell = {
  c_scheme : string;
  c_structure : string;  (** "stack" | "queue" | "hash" *)
  c_threads : int;
  c_ops : int;
  c_mops : float;
  c_reclaim : quantiles;  (** retire→free latency, operation ticks *)
  c_eject_batch : quantiles;
  c_peak_live : int;  (** sampled max of allocated-but-unreclaimed blocks *)
  c_peak_backlog : int;  (** sampled max of retired-but-unreclaimed entries *)
  c_leaked : int;  (** live blocks after teardown; nonzero only for None *)
}

let cell_key c = Printf.sprintf "%s/%s/%d" c.c_scheme c.c_structure c.c_threads

type atomic_profile = {
  a_core : string;  (** "sticky" | "slot" | "rc_cell" *)
  a_op : string;  (** pinned script name, e.g. "inc_dec" *)
  a_ops : int;  (** operations the script executed *)
  a_gets : int;
  a_sets : int;
  a_exchanges : int;
  a_cas : int;
  a_cas_failures : int;
  a_faa : int;
}

let atomics_total a = a.a_gets + a.a_sets + a.a_exchanges + a.a_cas + a.a_faa

let atomics_per_op a =
  if a.a_ops = 0 then 0.0 else float_of_int (atomics_total a) /. float_of_int a.a_ops

type meta = {
  m_label : string;  (** trajectory point name, e.g. "BENCH_PR7" *)
  m_git_sha : string;
  m_host_domains : int;  (** [Domain.recommended_domain_count] at run time *)
  m_duration : float;  (** measured seconds per cell *)
  m_threads : int list;
  m_scale : int;  (** structure-size divisor (1 = pinned sizes) *)
}

type summary = { s_meta : meta; s_cells : cell list; s_atomics : atomic_profile list }

(* ------------------------------------------------------------------ *)
(* JSON: each record's encoder and decoder sit side by side and name
   the same members in the same order. *)

let quantiles_to_json q =
  Json.Obj
    [ ("count", Int q.q_count); ("p50", Int q.q_p50); ("p99", Int q.q_p99); ("p999", Int q.q_p999) ]

let quantiles_of_json j =
  Json.{ q_count = field "count" to_int j; q_p50 = field "p50" to_int j;
         q_p99 = field "p99" to_int j; q_p999 = field "p999" to_int j }

let cell_to_json c =
  Json.Obj
    [ ("scheme", String c.c_scheme); ("structure", String c.c_structure);
      ("threads", Int c.c_threads); ("ops", Int c.c_ops); ("mops", Float c.c_mops);
      ("reclaim_latency", quantiles_to_json c.c_reclaim);
      ("eject_batch", quantiles_to_json c.c_eject_batch);
      ("peak_live", Int c.c_peak_live); ("peak_backlog", Int c.c_peak_backlog);
      ("leaked", Int c.c_leaked) ]

let cell_of_json j =
  Json.{ c_scheme = field "scheme" to_string_ j; c_structure = field "structure" to_string_ j;
         c_threads = field "threads" to_int j; c_ops = field "ops" to_int j;
         c_mops = field "mops" to_float j;
         c_reclaim = field "reclaim_latency" quantiles_of_json j;
         c_eject_batch = field "eject_batch" quantiles_of_json j;
         c_peak_live = field "peak_live" to_int j; c_peak_backlog = field "peak_backlog" to_int j;
         c_leaked = field "leaked" to_int j }

let atomic_to_json a =
  Json.Obj
    [ ("core", String a.a_core); ("op", String a.a_op); ("ops", Int a.a_ops);
      ("get", Int a.a_gets); ("set", Int a.a_sets); ("exchange", Int a.a_exchanges);
      ("cas", Int a.a_cas); ("cas_fail", Int a.a_cas_failures); ("faa", Int a.a_faa) ]

let atomic_of_json j =
  Json.{ a_core = field "core" to_string_ j; a_op = field "op" to_string_ j;
         a_ops = field "ops" to_int j; a_gets = field "get" to_int j;
         a_sets = field "set" to_int j; a_exchanges = field "exchange" to_int j;
         a_cas = field "cas" to_int j; a_cas_failures = field "cas_fail" to_int j;
         a_faa = field "faa" to_int j }

let meta_to_json m =
  Json.Obj
    [ ("label", String m.m_label); ("git_sha", String m.m_git_sha);
      ("host_domains", Int m.m_host_domains); ("duration_s", Float m.m_duration);
      ("threads", List (List.map (fun t -> Json.Int t) m.m_threads)); ("scale", Int m.m_scale) ]

let meta_of_json j =
  Json.{ m_label = field "label" to_string_ j; m_git_sha = field "git_sha" to_string_ j;
         m_host_domains = field "host_domains" to_int j;
         m_duration = field "duration_s" to_float j;
         m_threads = field "threads" (to_list to_int) j; m_scale = field "scale" to_int j }

let to_string s =
  Json.to_string
    (Obj
       [ ("schema_version", Int schema_version); ("meta", meta_to_json s.s_meta);
         ("cells", List (List.map cell_to_json s.s_cells));
         ("atomics", List (List.map atomic_to_json s.s_atomics)) ])

let summary_of_string str : (summary, string) result =
  let ( let* ) = Result.bind in
  let* j = Json.of_string str in
  let* v = Json.(decode (field "schema_version" to_int)) j in
  if v <> schema_version then
    Error (Printf.sprintf "schema_version %d (this build reads %d)" v schema_version)
  else
    Json.decode
      (fun j ->
        Json.{ s_meta = field "meta" meta_of_json j;
               s_cells = field "cells" (to_list cell_of_json) j;
               s_atomics = field "atomics" (to_list atomic_of_json) j })
      j

let load_file path : (summary, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | str -> Result.map_error (fun e -> path ^ ": " ^ e) (summary_of_string str)

let trajectory files =
  let number f =
    match Filename.chop_suffix_opt ~suffix:".json" f with
    | Some stem when String.starts_with ~prefix:"BENCH_PR" stem ->
        let n = String.sub stem 8 (String.length stem - 8) in
        if n <> "" && String.for_all (fun c -> c >= '0' && c <= '9') n then
          Option.map (fun n -> (n, f)) (int_of_string_opt n)
        else None
    | _ -> None
  in
  List.filter_map number files |> List.sort compare |> List.map snd

(* ------------------------------------------------------------------ *)
(* Validation *)

let quantiles_valid q =
  q.q_count >= 0 && q.q_p50 <= q.q_p99 && q.q_p99 <= q.q_p999
  && (q.q_count > 0 || q = quantiles_empty)

(** Schema-level sanity: non-empty cell matrix, unique cell keys,
    ordered quantiles, non-negative figures, and (optionally) coverage
    of [require_schemes]. This is what the CI smoke asserts about a
    freshly emitted summary before gating against the baseline. *)
let validate ?(require_schemes = []) s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec check_cells seen = function
    | [] -> Ok ()
    | c :: rest ->
        let key = cell_key c in
        if List.mem key seen then err "duplicate cell %s" key
        else if c.c_threads < 1 then err "%s: threads < 1" key
        else if c.c_ops < 0 || c.c_mops < 0.0 then err "%s: negative throughput" key
        else if c.c_peak_live < 0 || c.c_peak_backlog < 0 || c.c_leaked < 0 then
          err "%s: negative memory figure" key
        else if not (quantiles_valid c.c_reclaim) then
          err "%s: unordered reclaim quantiles" key
        else if not (quantiles_valid c.c_eject_batch) then
          err "%s: unordered eject quantiles" key
        else check_cells (key :: seen) rest
  in
  if s.s_cells = [] then Error "no cells"
  else
    match check_cells [] s.s_cells with
    | Error _ as e -> e
    | Ok () -> (
        let missing =
          List.filter
            (fun sch -> not (List.exists (fun c -> c.c_scheme = sch) s.s_cells))
            require_schemes
        in
        match missing with
        | sch :: _ -> err "scheme %s has no cell" sch
        | [] ->
            if s.s_atomics = [] then Error "no atomic profiles"
            else if List.exists (fun a -> a.a_ops <= 0) s.s_atomics then
              Error "atomic profile with ops <= 0"
            else Ok ())

(* ------------------------------------------------------------------ *)
(* Comparison (the regression gate) *)

type regression = {
  r_key : string;  (** [cell_key] of the offending cell *)
  r_metric : string;  (** ["throughput"] or ["reclaim_p99"] *)
  r_old : float;
  r_new : float;
  r_delta_pct : float;  (** signed change, negative = worse throughput *)
  r_allowed : bool;  (** matched the allowlist *)
}

(* p99 latencies below this many operation ticks are bucket-resolution
   noise (the histogram is log-scale: 1 → 2 is one bucket and +100%);
   regressions are only reported once either side clears the floor. *)
let latency_floor = 8

let allow_matches entries key =
  List.exists
    (fun e -> e = key || String.starts_with ~prefix:(e ^ "/") key)
    entries

(** Compare [cand] against [base] cell-by-cell over the intersection of
    cell keys. A throughput drop beyond [throughput_tol] percent or a
    p99 retire→free latency growth beyond [latency_tol] percent is a
    regression; cells matched by [allow] (exact key, or a prefix like
    ["EBR/stack"] or ["EBR"]) are still reported but flagged allowed.
    Returns the regression list and the number of cells compared. *)
let compare_summaries ?(throughput_tol = 15.0) ?(latency_tol = 25.0) ?(allow = [])
    (base : summary) (cand : summary) : regression list * int =
  let compared = ref 0 in
  let regs = ref [] in
  List.iter
    (fun (nc : cell) ->
      match
        List.find_opt
          (fun (oc : cell) -> cell_key oc = cell_key nc)
          base.s_cells
      with
      | None -> ()
      | Some oc ->
          incr compared;
          let key = cell_key nc in
          let allowed = allow_matches allow key in
          if oc.c_mops > 0.0 && nc.c_mops < oc.c_mops *. (1.0 -. (throughput_tol /. 100.0))
          then
            regs :=
              {
                r_key = key;
                r_metric = "throughput";
                r_old = oc.c_mops;
                r_new = nc.c_mops;
                r_delta_pct = 100.0 *. ((nc.c_mops /. oc.c_mops) -. 1.0);
                r_allowed = allowed;
              }
              :: !regs;
          let op99 = oc.c_reclaim.q_p99 and np99 = nc.c_reclaim.q_p99 in
          if
            oc.c_reclaim.q_count > 0 && nc.c_reclaim.q_count > 0
            && (op99 >= latency_floor || np99 >= latency_floor)
            && op99 > 0
            && float_of_int np99
               > float_of_int op99 *. (1.0 +. (latency_tol /. 100.0))
          then
            regs :=
              {
                r_key = key;
                r_metric = "reclaim_p99";
                r_old = float_of_int op99;
                r_new = float_of_int np99;
                r_delta_pct = 100.0 *. ((float_of_int np99 /. float_of_int op99) -. 1.0);
                r_allowed = allowed;
              }
              :: !regs)
    cand.s_cells;
  (List.rev !regs, !compared)

(** True iff any regression is not allowlisted — the comparator's
    exit-1 condition. *)
let failed regs = List.exists (fun r -> not r.r_allowed) regs

let pp_regression ppf r =
  Format.fprintf ppf "%-8s %-28s %10.3f -> %10.3f  (%+.1f%%)%s"
    (match r.r_metric with "throughput" -> "Mops/s" | m -> m)
    r.r_key r.r_old r.r_new r.r_delta_pct
    (if r.r_allowed then "  [allowlisted]" else "")

(* ------------------------------------------------------------------ *)
(* Rendering (`stats --perf`) *)

let pp ppf s =
  let m = s.s_meta in
  Format.fprintf ppf "== perf summary: %s (sha %s, %d host domains, %.2fs/cell, scale %d) ==@.@."
    m.m_label m.m_git_sha m.m_host_domains m.m_duration m.m_scale;
  let structures =
    List.fold_left
      (fun acc c -> if List.mem c.c_structure acc then acc else acc @ [ c.c_structure ])
      [] s.s_cells
  in
  List.iter
    (fun st ->
      Format.fprintf ppf "-- %s --@." st;
      Format.fprintf ppf "%-14s %-4s %10s %12s %21s %13s %10s %9s %7s@." "scheme" "P"
        "Mops/s" "ops" "reclaim p50/p99/p999" "eject p50/p99" "peak-live" "backlog"
        "leaked";
      List.iter
        (fun c ->
          if c.c_structure = st then
            Format.fprintf ppf "%-14s %-4d %10.3f %12d %9s %13s %10d %9d %7d@."
              c.c_scheme c.c_threads c.c_mops c.c_ops
              (if c.c_reclaim.q_count = 0 then "-"
               else
                 Printf.sprintf "%d/%d/%d" c.c_reclaim.q_p50 c.c_reclaim.q_p99
                   c.c_reclaim.q_p999)
              (if c.c_eject_batch.q_count = 0 then "-"
               else Printf.sprintf "%d/%d" c.c_eject_batch.q_p50 c.c_eject_batch.q_p99)
              c.c_peak_live c.c_peak_backlog c.c_leaked)
        s.s_cells;
      Format.fprintf ppf "@.")
    structures;
  if s.s_atomics <> [] then begin
    Format.fprintf ppf
      "-- atomic-op profile (counting window, exact per-op costs of the lock-free cores) --@.";
    Format.fprintf ppf "%-16s %-18s %10s %6s %6s %6s %10s %6s@." "core" "op" "atomics/op"
      "get" "set" "xchg" "cas(fail)" "faa";
    List.iter
      (fun a ->
        Format.fprintf ppf "%-16s %-18s %10.2f %6d %6d %6d %6d(%d) %6d@." a.a_core a.a_op
          (atomics_per_op a) a.a_gets a.a_sets a.a_exchanges a.a_cas a.a_cas_failures
          a.a_faa)
      s.s_atomics;
    Format.fprintf ppf "@."
  end
