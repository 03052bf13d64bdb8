(** Fixed-bucket log-scale histograms (DESIGN.md §7).

    32 buckets: bucket 0 holds v <= 0, bucket i >= 1 holds
    2^(i-1) <= v < 2^i, and the last bucket absorbs everything above
    2^30. Recording is a bucket-index computation plus one
    fetch-and-add into a per-domain shard; merging only happens at
    report time, so the hot path never takes a lock. A percentile is
    reported as the inclusive upper bound of its bucket, i.e. a
    guaranteed "no worse than" figure. *)

type t

val buckets : int

val histo : string -> t
(** Find-or-register the histogram named [name]. *)

val name : t -> string

val bucket_of : int -> int
(** Bucket index for a value. *)

val bucket_upper : int -> int
(** Inclusive upper bound of bucket [i]: the value reported for any
    percentile that lands in it. *)

val observe : t -> pid:int -> int -> unit
(** Record one value; no-op while {!Metrics.enabled} is false. *)

val merged : t -> int array
(** Merged bucket counts across all shards, as a [buckets]-long
    array. *)

val count : t -> int
(** Total observations. *)

val percentile_of_counts : int array -> float -> int option
(** Nearest-rank percentile over merged bucket counts; [None] when
    empty. *)

val percentile : t -> float -> int option

val percentiles : t -> (int * int * int) option
(** [(p50, p99, p999)], or [None] if there are no observations. *)

val dump : unit -> t list
(** All registered histograms, name-sorted. *)

val merged_suffix : string -> int array
(** Bucket counts summed over every histogram whose name ends in
    [suffix], e.g. [".reclaim_latency"] for all the
    [smr.<scheme>.reclaim_latency] rings (an RC run populates its
    underlying scheme's). *)

val reset : unit -> unit
(** Zero every cell, keeping registered names. *)
