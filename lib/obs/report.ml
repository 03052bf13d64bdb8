(* Rendering and validation of the telemetry state.

   [tree] prints the counter/gauge/histogram registries as an indented
   tree keyed on the dot-segments of metric names, so
   [smr.ebr.eject.ops] and [smr.ebr.retire] share the [smr.ebr] node.
   [json] emits the same data as one JSON object (histograms carry
   their non-empty buckets and nearest-rank p50/p99/p999).

   [validate_jsonl_file] parses each line with [Json] and accepts
   exactly the shape our own [Trace] export produces: a flat object of
   scalars, no nesting. That is what CI asserts about a trace file. *)

let tree ?(out = Buffer.create 1024) () =
  let counters, gauges = Metrics.dump () in
  let histos =
    Histo.dump ()
    |> List.filter_map (fun h ->
           match Histo.percentiles h with
           | None -> None
           | Some (p50, p99, p999) ->
               Some
                 ( Histo.name h,
                   Printf.sprintf "n=%d p50=%d p99=%d p999=%d" (Histo.count h) p50 p99 p999 ))
  in
  let entries =
    List.map (fun (n, v) -> (n, string_of_int v)) counters
    @ List.map (fun (n, v) -> (n, Printf.sprintf "%d (gauge)" v)) gauges
    @ histos
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Print shared dot-prefix segments once, indenting two spaces per
     depth; the leaf segment carries the value. *)
  let prev = ref [] in
  List.iter
    (fun (name, value) ->
      let segs = String.split_on_char '.' name in
      let rec common a b =
        match (a, b) with
        | x :: a', y :: b' when x = y && b' <> [] && a' <> [] -> 1 + common a' b'
        | _ -> 0
      in
      let shared = common !prev segs in
      let rec emit depth = function
        | [] -> ()
        | [ leaf ] ->
            Buffer.add_string out (String.make (depth * 2) ' ');
            Buffer.add_string out leaf;
            Buffer.add_string out ": ";
            Buffer.add_string out value;
            Buffer.add_char out '\n'
        | seg :: rest ->
            if depth >= shared then begin
              Buffer.add_string out (String.make (depth * 2) ' ');
              Buffer.add_string out seg;
              Buffer.add_char out '\n'
            end;
            emit (depth + 1) rest
      in
      emit 0 segs;
      prev := segs)
    entries;
  Buffer.contents out

let json () =
  let counters, gauges = Metrics.dump () in
  let ints kvs = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) kvs) in
  let histo h =
    match Histo.percentiles h with
    | None -> Json.Obj [ ("count", Int 0) ]
    | Some (p50, p99, p999) ->
        let buckets =
          Histo.merged h |> Array.to_seqi
          |> Seq.filter_map (fun (i, c) ->
                 if c > 0 then Some (Json.List [ Int (Histo.bucket_upper i); Int c ]) else None)
          |> List.of_seq
        in
        Obj
          [ ("count", Int (Histo.count h)); ("p50", Int p50); ("p99", Int p99);
            ("p999", Int p999); ("buckets", List buckets) ]
  in
  Json.to_string
    (Obj
       [ ("counters", ints counters); ("gauges", ints gauges);
         ("histograms", Obj (List.map (fun h -> (Histo.name h, histo h)) (Histo.dump ()))) ])

let scalar = function Json.(Null | Bool _ | Int _ | Float _ | String _) -> true | _ -> false

let validate_jsonl_file path =
  In_channel.with_open_text path (fun ic ->
      let rec go lineno =
        match In_channel.input_line ic with
        | None -> Ok (lineno - 1)
        | Some line -> (
            match Json.of_string line with
            | Ok (Obj kvs) when List.for_all (fun (_, v) -> scalar v) kvs -> go (lineno + 1)
            | Ok _ -> Error (Printf.sprintf "line %d: not a flat object of scalars" lineno)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
      in
      go 1)

(** Reset every telemetry store: counters, gauges, histograms, trace
    rings, the verdict sink, and the tick clock. *)
let reset_all () =
  Metrics.reset ();
  Histo.reset ();
  Trace.reset ();
  Verdicts.reset ();
  Tick.reset ()
