(* Determinism of the benchmark's count metrics.

   For each workload, two traced runs with one seed must print
   bit-identical count metrics: the peak blocks and every gc, smr,
   cdrc (times excepted) and simheap figure. A run with another seed
   must generate another op stream. Runs are shrunk with --scale and
   limited to one round with --seconds 0.

   Usage: test_determinism.exe PATH-TO-bench.exe *)

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ ->
      List.iter prerr_endline lines;
      failwith (String.concat " " (exe :: args) ^ ": failed")

let is_count name =
  let has sub =
    let n = String.length sub and m = String.length name in
    let rec at i = i + n <= m && (String.sub name i n = sub || at (i + 1)) in
    at 0
  in
  (Filename.check_suffix name "_peak_blocks" || has ".gc." || has ".smr." || has ".cdrc."
 || has ".simheap.")
  && not (Filename.check_suffix name "_ms")

let counts lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "metric"; name; value; _ ] when is_count name -> Some (name, value)
      | _ -> None)
    lines

let op_stream lines =
  let key = "op_stream=" in
  List.find_map
    (fun l ->
      List.find_map
        (fun w ->
          if String.starts_with ~prefix:key w then
            Some (String.sub w (String.length key) (String.length w - String.length key))
          else None)
        (String.split_on_char ' ' l))
    lines

let () =
  let exe = Sys.argv.(1) in
  let exe = if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe in
  let failures = ref 0 in
  let check ok msg =
    if not ok then begin
      incr failures;
      prerr_endline ("FAIL: " ^ msg)
    end
  in
  List.iter
    (fun w ->
      let go seed =
        run exe
          [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; "0"; "--trace"; "1"; "--scale"; "16" ]
      in
      let a = go 11 and b = go 11 and c = go 12 in
      let ca = counts a and cb = counts b in
      List.iter
        (fun name ->
          check (List.mem_assoc name ca) (Printf.sprintf "%s: count metric %s missing" w name))
        (List.concat_map
           (fun s ->
             [ s ^ "_peak_blocks"; s ^ ".gc.minor_words_per_op"; s ^ ".smr.retire_per_op";
               s ^ ".cdrc.backlog_max"; s ^ ".simheap.retained_per_op" ])
           [ "rcebr"; "rchp" ]);
      List.iter2
        (fun (n, x) (_, y) -> check (x = y) (Printf.sprintf "%s: %s differs: %s vs %s" w n x y))
        ca cb;
      check (op_stream a <> None && op_stream a = op_stream b) (w ^ ": op stream differs for one seed");
      check (op_stream a <> op_stream c) (w ^ ": op stream ignores the seed");
      Printf.printf "%s: %d count metrics identical across two runs\n" w (List.length ca))
    [ "queue-weak"; "tree-read"; "kv-zipf" ];
  if !failures > 0 then exit 1
