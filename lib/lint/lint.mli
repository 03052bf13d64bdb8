(** rc-lint: static atomic-discipline and layout checks for the
    reclamation stack (DESIGN.md §9).

    The analyzer parses each [.ml] file with the ppxlib parser and runs
    a set of purely syntactic rules over the AST — R1 and R4–R6,
    catalogued in {!rules} (the life-cycle rules and knob capture are
    retired, and the gaps they leave in the numbering are not reused).
    Rules are deliberately approximate: they encode the repo's protocol
    conventions (the [Sched.Atomic] discipline of §8, telemetry hooks,
    padded counters) rather than a points-to analysis. No rule checks a pointer's life cycle: the
    rank-2 [Acquire_retire] scope types all three Meyer–Wolff
    obligations — release every guard, dereference only through a live
    guard, retire only under an unlink witness.

    Which rules run on a file is decided by its path (the role system:
    protocol directories, SMR schemes, observability modules). The
    visitor machinery, role classification, and per-rule state are
    implementation details hidden behind this interface.

    Suppression: [\[@@@rc_lint.allow "R4"\]] as a floating structure
    attribute silences a rule from that point to the end of the file;
    [\[@rc_lint.allow "R4"\]] attached to an expression or value
    binding silences exactly that subtree/site. The payload ["all"]
    silences every rule. *)

val rules : (string * string) list
(** The rule catalogue: [(id, one-line description)] pairs, in order.
    This is what [rc_lint --list-rules] prints. *)

val lint_string :
  ?allow_unsafe:string list -> filename:string -> string -> Finding.t list
(** [lint_string ~filename src] parses [src] and returns its findings,
    sorted by {!Finding.compare}. [filename] determines the file's
    roles (and thus which rules run); [allow_unsafe] lists path
    suffixes where R4 (Obj escapes) is permitted. A parse failure is
    reported as a single finding with rule ["parse"] rather than an
    exception. *)

val lint_file : ?allow_unsafe:string list -> string -> Finding.t list
(** [lint_file path] reads and lints one file. *)

val lint_paths : ?allow_unsafe:string list -> string list -> Finding.t list
(** [lint_paths roots] lints every [.ml] file under the given roots
    (directories are walked recursively, [_build] and dotfiles
    skipped), returning the merged, sorted findings. *)

val load_allowlist : string -> string list
(** Read an R4 allowlist file: one path suffix per line, [#] comments
    and blank lines ignored. *)
