#!/bin/sh
# Typechecks each protection-scope fixture against the built library
# interfaces. Usage: check_scope_fixtures.sh OCAMLC CMI...
# (one installed .cmi per library, naming its include directory).
# Every scope_fixtures/escape_*.ml must be rejected with exit 2 and the
# rank-2 scope error; scope_fixtures/control.ml must typecheck, so a
# broken include path cannot make the escapes "fail" for the wrong
# reason.
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
  out=$("$ocamlc" $incs -i "$f" 2>&1)
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
      if [ "$code" -ne 2 ] ||
        ! echo "$out" | grep -q "less general than 's\. 's [A-Za-z_.]*scope -> '"; then
        echo "$f: expected exit 2 with the rank-2 scope error; got exit $code:" >&2
        echo "$out" >&2
        status=1
      fi
      ;;
  esac
done
exit $status
