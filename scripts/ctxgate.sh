#!/bin/sh
# ctxgate: the context-first API gate for the query-path packages.
#
# Every exported function or method in internal/engine, internal/store
# and internal/index either takes `ctx context.Context` as its first
# parameter or is grandfathered in scripts/ctxgate_allow.txt (the
# pre-redesign constructor/accessor surface that has no blocking work
# to cancel). The deprecated.go compatibility wrappers kept for one
# release after the redesign are gone; every caller is ctx-first now.
#
# A NEW exported entry point without ctx therefore fails CI until it
# either gains the parameter or is consciously added to the allowlist
# in the same review. A STALE allowlist line — one naming no exported
# non-ctx function, because the function was deleted, renamed or given
# a ctx parameter — fails too, so the list only ever names live code.
# An allowlist line is "path:Name", optionally followed by "# reason";
# --update rewrites the file without reasons.
#
#   scripts/ctxgate.sh            check (exit 1 on violations)
#   scripts/ctxgate.sh --update   regenerate the allowlist
set -eu

cd "$(dirname "$0")/.."
allow=scripts/ctxgate_allow.txt

# Exported func/method declarations whose first parameter is not ctx,
# as "path:Name". Receiver and parameter list are stripped; generic
# type parameters on funcs keep the name intact because we cut at the
# first '(' or '['.
offenders() {
    for dir in internal/engine internal/store internal/index; do
        for f in "$dir"/*.go; do
            case "$f" in
            *_test.go) continue ;;
            esac
            # "func Name(" or "func (r *Recv) Name(" with an exported
            # Name; then drop lines whose first param is ctx.
            grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[([]' "$f" |
                grep -vE '[([]ctx context\.Context' |
                sed -E "s|^([0-9]+):func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*).*|$f:\3|"
        done
    done | sort -u
}

if [ "${1:-}" = "--update" ]; then
    offenders >"$allow"
    echo "ctxgate: allowlist regenerated with $(wc -l <"$allow") entries"
    exit 0
fi

if [ ! -f "$allow" ]; then
    echo "ctxgate: missing $allow (run scripts/ctxgate.sh --update once)" >&2
    exit 1
fi

# Offenders not on the allowlist; a line's "# reason" is not part of
# its entry.
new=$(offenders | awk '
    FILENAME == allow { sub(/[ \t]*#.*/, ""); if ($0 != "") ok[$0] = 1; next }
    !($0 in ok)' allow="$allow" "$allow" -)
# Allowlist entries that name no current offender.
stale=$(offenders | awk '
    FILENAME == "-" { live[$0] = 1; next }
    { sub(/[ \t]*#.*/, "") }
    $0 != "" && !($0 in live)' - "$allow")
status=0
if [ -n "$new" ]; then
    echo "ctxgate: new exported entry points without a ctx first parameter:" >&2
    echo "$new" | sed 's/^/  /' >&2
    echo "ctxgate: thread context.Context through (see README: Serving & QoS)," >&2
    echo "ctxgate: or append to $allow if there is genuinely nothing to cancel." >&2
    status=1
fi
if [ -n "$stale" ]; then
    echo "ctxgate: stale $allow entries (no such exported non-ctx function):" >&2
    echo "$stale" | sed 's/^/  /' >&2
    echo "ctxgate: delete them from $allow." >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "ctxgate: ok"
exit "$status"
