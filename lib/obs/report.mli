(** Rendering and validation of the telemetry state (DESIGN.md §7). *)

val tree : ?out:Buffer.t -> unit -> string
(** The counter/gauge/histogram registries as an indented tree keyed
    on the dot-segments of metric names. *)

val json : unit -> string
(** The same data as one JSON object; histograms carry their
    non-empty buckets and nearest-rank p50/p99/p999. *)

val validate_jsonl_file : string -> (int, string) result
(** Parse every line of a JSONL file with {!Json.of_string} and check
    it is the flat object of scalars our [Trace] export produces; [Ok n]
    with the line count, or the first error. Empty lines are rejected.
    Raises [Sys_error] if the file cannot be opened. *)

val reset_all : unit -> unit
(** Reset every telemetry store: counters, gauges, histograms, trace
    rings, the verdict sink, and the tick clock. *)
