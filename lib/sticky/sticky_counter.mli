(** Wait-free sticky counter with constant-time increment-if-not-zero,
    decrement, and load (paper §4.3, Figure 7).

    The counter is stored in a single atomic integer. The two highest
    usable bits are bookkeeping flags:

    - [zero]: when set, the counter is (permanently) zero, regardless
      of the low bits — failed increments may still bump the low bits,
      which is harmless because the flag dominates.
    - [help]: set together with [zero] by a {!load} that helped an
      in-flight decrement announce the death; the decrement that clears
      it with an exchange takes credit for bringing the count to zero.

    Divergence from the paper (documented, see DESIGN.md S5): C++
    [compare_exchange] returns the witnessed value on failure in the
    same atomic step; OCaml's [Atomic.compare_and_set] does not, so a
    failed CAS is followed by a separate re-read. This makes {!load}
    (and the failure path of {!decrement}) lock-free rather than
    wait-free in the strict sense — the retry happens only when the
    counter is concurrently revived and re-killed, never in a quiescent
    state. The sequential specification and the
    exactly-one-decrement-takes-credit property are unchanged, and are
    checked by the test suite. *)

include Counter_intf.S

val max_value : int
(** Largest representable logical count (2^60 - 1 on 64-bit). *)

val raw : t -> int
(** Raw stored bits, for tests and diagnostics only. *)

val mutation_drop_help_publish : bool ref
(** Seeded Fig 7 mutant for the schedule explorer: [load] announces a
    death without the help flag, so the racing decrement loses its
    credit. Honoured only inside an interposed fiber
    ({!Sched.Atomic.interposed}); production code never sees it. *)
