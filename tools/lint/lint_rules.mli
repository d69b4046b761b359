(** The [cmvrp_lint] rule engine: parsetree-level enforcement of the
    project's domain invariants (exact L1/energy bookkeeping, handler
    purity, observability naming) over [.ml] sources.

    The checks are purely syntactic — the tool parses with
    [compiler-libs] but never type-checks, so it is fast, needs no build
    context, and works on fixture files that reference unknown modules.
    The flip side is documented per rule in [docs/LINT.md]: e.g. the
    polymorphic-comparison rule recognizes call sites by name, not by
    type.

    Any diagnostic can be waived at its line (or the line above) with a
    comment: [(* lint: allow <rule-id> *)], several ids separated by
    commas or spaces.  A waiver that suppresses nothing is itself
    reported under the advisory [unused-waiver] rule, so stale markers
    cannot accumulate. *)

type diagnostic = {
  rule : string;  (** one of {!rule_ids}, or ["parse-error"] *)
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler messages *)
  message : string;
  advisory : bool;
      (** Advisory diagnostics are reported but do not fail the run
          (the CLI exits 0 if only advisories remain).  Today only
          [unused-waiver] is advisory. *)
}

val rule_ids : string list
(** The enforced rules, in documentation order:
    [poly-compare], [handler-raise], [missing-mli], [print-in-lib],
    [metric-name], [unsafe-array], [energy-arith], [catch-all],
    [domain-confine], [dead-export], plus the advisory [unused-waiver]. *)

val run : string list -> int * diagnostic list
(** [run paths] lints every [.ml] file under the given files/directories
    (recursively, skipping [_build] and dot-directories), and the [.mli]
    beside each one under a [lib] path component, and returns
    [(checked_files, diagnostics)], diagnostics sorted by
    file/line/column.  The [dead-export] rule reads its callers from the
    repository around each such [lib]: see [docs/LINT.md].  Raises
    [Invalid_argument] on a path that does not exist. *)

val json_report : checked_files:int -> diagnostic list -> Json.t
(** Machine-readable report ([schema_version 1]): tool name, file and
    violation counts, and one object per diagnostic. *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [file:line:col: [rule] message], the human-readable form. *)
