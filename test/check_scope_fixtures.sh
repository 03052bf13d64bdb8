#!/bin/sh
# Typechecks each fixture against the built library interfaces, with
# the flags of the protocol libraries (lib/sched/dune): a bare Atomic
# is an error there, as in lib/ds. Usage: check_scope_fixtures.sh
# OCAMLC CMI... (one installed .cmi per library, naming its include
# directory; Protocol_prelude's among them).
# scope_fixtures/control.ml must typecheck, so a broken include path
# cannot make the others "fail" for the wrong reason. Every other
# fixture must be rejected with exit 2, and its compiler error (newlines
# folded to spaces) must match the basic regex of its first line,
# "(* expect: REGEX *)": a fixture cannot pass by failing for another
# reason, such as an unbound name.
set -u
ocamlc=$1
shift
incs=""
for cmi in "$@"; do
  incs="$incs -I $(dirname "$cmi")"
done
status=0
for f in scope_fixtures/*.ml; do
  # shellcheck disable=SC2086
  out=$("$ocamlc" $incs -open Protocol_prelude -alert ++raw_atomic -i "$f" 2>&1)
  code=$?
  case $f in
    */control.ml)
      if [ "$code" -ne 0 ]; then
        echo "$f: the control fixture must typecheck (exit $code):" >&2
        echo "$out" >&2
        status=1
      fi
      ;;
    *)
      expect=$(sed -n '1s/^(\* expect: \(.*\) \*)$/\1/p' "$f")
      if [ -z "$expect" ]; then
        echo "$f: the first line must be (* expect: REGEX *)" >&2
        status=1
      elif [ "$code" -ne 2 ] || ! echo "$out" | tr '\n' ' ' | grep -q -- "$expect"; then
        echo "$f: expected exit 2 with an error matching \"$expect\"; got exit $code:" >&2
        echo "$out" >&2
        status=1
      fi
      ;;
  esac
done
exit $status
