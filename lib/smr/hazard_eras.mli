(** Hazard eras (Ramalhete & Correia 2017) — the paper discusses HE in
    §6 as a hybrid of protected-pointer and protected-region methods;
    we include it as a fifth scheme, giving an automatic RCHE beyond
    the paper's three conversions.

    Like HP, each thread owns announcement slots; unlike HP, a slot
    announces the current {e era} rather than a pointer. A pointer read
    while a slot holds era [e] is protected if the era is unchanged
    when {!confirm} runs afterwards — then the object's birth era is
    ≤ [e] ≤ its (future) retire era, so its interval covers the
    announcement. Objects carry birth eras from {!alloc_hook}; entries
    are safe when no announced era falls inside their birth–retire
    interval. If the era advances rarely, [confirm] almost always
    succeeds without a new store, giving region-scheme-like read cost
    with pointer-scheme-like precision. *)

include Smr_intf.S

val advance_era : t -> unit
