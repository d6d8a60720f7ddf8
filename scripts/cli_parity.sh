#!/usr/bin/env bash
# Byte-compares the CLI output of two limscan builds: a refactor that
# claims "same results" must print the same programs and summaries.
#
# For each circuit it compares stdout (the program), stderr (the summary)
# and the exit status of
#   - `generate` with each of: no flag, --chains 2, --engine genetic,
#     --analyze, --no-compact, --max-faults 50, --deadline 1000;
#   - `compact` of the default program (written by the old build);
#   - `resume` from every snapshot of a `--max-vectors 1 --snapshots` run.
# Every difference is listed; the exit status is 1 if there was any.
#
# Usage: scripts/cli_parity.sh OLD_LIMSCAN NEW_LIMSCAN [circuit...]
#        (default circuits: s27 s298 s344 s386 s526 b09)
set -u

OLD="$1"
NEW="$2"
shift 2
[ "$#" -gt 0 ] || set -- s27 s298 s344 s386 s526 b09
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
differences=0

run_both() { # $1 = tag, rest = limscan arguments ("{build}" becomes old/new)
    local tag="$1" build bin stream
    shift
    for build in old new; do
        bin="$OLD"
        [ "$build" = new ] && bin="$NEW"
        "$bin" "${@//\{build\}/$build}" >"$WORK/$tag.$build.out" 2>"$WORK/$tag.$build.err"
        echo "exit $?" >>"$WORK/$tag.$build.out"
    done
    for stream in out err; do
        if ! cmp -s "$WORK/$tag.old.$stream" "$WORK/$tag.new.$stream"; then
            echo "DIFF $tag (std$stream)"
            differences=1
        fi
    done
}

for c in "$@"; do
    for flags in "" "--chains 2" "--engine genetic" "--analyze" "--no-compact" \
        "--max-faults 50" "--deadline 1000"; do
        # shellcheck disable=SC2086 # flags split into arguments on purpose
        run_both "$c.generate$(echo "$flags" | tr -d ' -')" generate "$c" $flags
    done

    "$OLD" generate "$c" -o "$WORK/$c.prog" 2>/dev/null
    run_both "$c.compact" compact "$c" "$WORK/$c.prog"

    # The budget-stop messages name the snapshot directory, so only the
    # resumed runs are compared.
    "$OLD" generate "$c" --max-vectors 1 --snapshots "$WORK/$c.old" >/dev/null 2>&1
    "$NEW" generate "$c" --max-vectors 1 --snapshots "$WORK/$c.new" >/dev/null 2>&1
    for snap in "$WORK/$c.old"/*.snap; do
        [ -e "$snap" ] || continue
        name="$(basename "$snap")"
        run_both "$c.resume-$name" resume "$WORK/$c.{build}/$name"
    done
    echo "checked $c"
done
[ "$differences" -eq 0 ] && echo "OK: identical output"
exit "$differences"
