#!/bin/sh
# docscheck.sh verifies six invariants of the documentation tree:
#
#   1. Every Go package in the module carries a package doc comment: at least
#      one file per package must open with a "// Package <x>" (libraries) or
#      "// Command <x>" (main packages) comment line.
#   2. Every docs/*.md file is reachable from README.md — mentioned by its
#      "docs/<NAME>.md" path either in the README itself or in another docs
#      page the README reaches, transitively (the repo's docs reference each
#      other by path, in prose or links). An orphaned page is documentation
#      nobody will find.
#   3. Every make target the docs tell a reader to run exists: each
#      "`make <target>`" code span and each "make <target>" line inside a
#      fenced code block in README.md, docs/*.md and the verify skill notes
#      (.claude/skills/verify/SKILL.md) must name a target the Makefile
#      defines.
#   4. Every Go identifier the docs name by package resolves: a "pkg.Name"
#      inside a backtick code span in the same files, where internal/pkg
#      exists, must name something the package's non-test Go files declare
#      (a top-level func, type, var or const, a method, or a struct field).
#      A three-part "pkg.Type.Member" span must also resolve its member:
#      when the package declares Type as a type, Member must be a field of
#      its struct body or a method with a Type receiver (promoted fields of
#      embedded types do not count); otherwise (Type is a var or func)
#      Member must be declared somewhere in the package. Spans inside
#      fenced code blocks, and path components such as
#      "internal/fleet/sim.go", are not checked.
#   5. Every docs page a reader is pointed at exists: each "docs/<NAME>.md"
#      path in the same files and in the comments of non-test Go files, and
#      each relative markdown link target ending in ".md" in the same files
#      (resolved from the linking file's directory), must name a file in the
#      tree. A pointer to a deleted page is a dead end.
#   6. Every source path a reader is pointed at exists: each "internal/<path>"
#      in the same files and in the comments of non-test Go files (trailing
#      dots dropped) must name a directory or file in the tree. Invariant 4
#      skips identifiers of packages that no longer exist, so this is what
#      catches a citation of a deleted package.
#
# Usage: sh tools/docscheck.sh   (or: make docs-check)
set -eu

cd "$(dirname "$0")/.."

# One line per package: "<dir>\t<file> <file> ...". The while loop runs in a
# pipeline subshell, so undocumented packages are reported on stdout and
# collected by the $(...) capture instead of a shared variable.
bad=$(
    ${GO:-go} list -f '{{.Dir}}{{"\t"}}{{range .GoFiles}}{{.}} {{end}}' ./... |
    while IFS="$(printf '\t')" read -r dir files; do
        found=0
        for f in $files; do
            if grep -Eq '^// (Package|Command) ' "$dir/$f"; then
                found=1
                break
            fi
        done
        if [ "$found" -eq 0 ]; then
            echo "$dir"
        fi
    done
)

if [ -n "$bad" ]; then
    echo "docscheck: packages without a doc comment:" >&2
    echo "$bad" | sed 's/^/  /' >&2
    echo "docscheck: FAILED — add a '// Package <name> ...' (or '// Command <name> ...') comment" >&2
    exit 1
fi

echo "docscheck: OK — every package documents itself"

# --- docs/*.md reachability ---------------------------------------------
# Breadth-first walk starting from README.md: a docs page counts as reachable
# when some reached page mentions its "docs/<NAME>.md" path (prose mention or
# markdown link — the repo's docs cite each other by path either way).
frontier="README.md"
reached=""
while [ -n "$frontier" ]; do
    next=""
    for page in $frontier; do
        [ -f "$page" ] || continue
        case " $reached " in *" $page "*) continue ;; esac
        reached="$reached $page"
        for t in $(grep -oE 'docs/[A-Za-z0-9_.-]+\.md' "$page" 2>/dev/null | sort -u); do
            [ -f "$t" ] && next="$next $t"
        done
    done
    frontier="$next"
done

orphans=""
for f in docs/*.md; do
    [ -f "$f" ] || continue
    case " $reached " in
        *" $f "*) ;;
        *) orphans="$orphans $f" ;;
    esac
done

if [ -n "$orphans" ]; then
    echo "docscheck: docs pages not reachable from README.md:" >&2
    for f in $orphans; do echo "  $f" >&2; done
    echo "docscheck: FAILED — link each page from README.md or from a page the README links" >&2
    exit 1
fi

echo "docscheck: OK — every docs/*.md page is reachable from README.md"

# --- make targets named by the docs -------------------------------------
# Makefile rules are lines "<target>:" (not ":=" assignments). In a doc
# page, the target is the first word after "make" that is not a VAR=value
# override; a bare "make" names the default goal and is not checked.
targets=" $(sed -n 's/^\([A-Za-z0-9_-][A-Za-z0-9_.-]*\):\([^=].*\)\{0,1\}$/\1/p' Makefile | tr '\n' ' ')"
docs="README.md docs/*.md"
[ -f .claude/skills/verify/SKILL.md ] && docs="$docs .claude/skills/verify/SKILL.md"
missing=$(
    # shellcheck disable=SC2086 # $docs is a word list with a glob.
    awk '
        function target(cmd,    n, w, i, seen) {
            n = split(cmd, w, /[ \t]+/)
            for (i = 1; i <= n; i++) {
                if (!seen) { seen = (w[i] == "make"); continue }
                if (w[i] !~ /=/) return w[i]
            }
            return ""
        }
        FNR == 1 { fence = 0 }
        /^[ \t]*```/ { fence = !fence; next }
        {
            line = $0
            while (match(line, /`make[ \t][^`]*`/)) {
                t = target(substr(line, RSTART + 1, RLENGTH - 2))
                if (t != "") print FILENAME ":" FNR ": make " t "\t" t
                line = substr(line, RSTART + RLENGTH)
            }
            if (fence && $1 == "make") {
                t = target($0)
                if (t != "") print FILENAME ":" FNR ": make " t "\t" t
            }
        }' $docs |
    while IFS="$(printf '\t')" read -r where t; do
        case "$targets" in *" $t "*) ;; *) echo "$where" ;; esac
    done
)

if [ -n "$missing" ]; then
    echo "docscheck: docs name make targets the Makefile does not define:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    echo "docscheck: FAILED — fix the command in the doc or add the target" >&2
    exit 1
fi

echo "docscheck: OK — every make target the docs name exists"

# --- package identifiers named by the docs ------------------------------
# Each backtick span is scanned for "pkg.Name" tokens that do not continue
# a longer selector or path (a preceding letter, digit, '_', '.', '/' or '-'
# rules the token out). A declaration is a line that opens with func (with
# or without a receiver), type, var or const before Name, or an indented
# line (struct field, interface method, grouped const/var/type) whose first
# names include Name; "Name:" keys of composite literals do not count. A
# third component is checked against the named type's struct body and
# methods by member_declared.
member_declared() { # <type> <member> <file>...
    mt=$1 mm=$2
    shift 2
    awk -v T="$mt" -v M="$mm" '
        $0 ~ "^type " T " struct \\{" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && $0 ~ "^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*, )*" M "([^A-Za-z0-9_:]|$)" { found = 1 }
        $0 ~ "^func \\([^)]*[ *]" T "\\) " M "[[(]" { found = 1 }
        END { exit !found }' "$@"
}
decl_re() { # <name>: a top-level or indented declaration of name
    echo "^(func (\\([^)]*\\) )?|type |var |const |[[:space:]]+([A-Za-z_][A-Za-z0-9_]*, )*)$1([^A-Za-z0-9_:]|\$)"
}
unresolved=$(
    # shellcheck disable=SC2086 # $docs is a word list with a glob.
    awk '
        FNR == 1 { fence = 0 }
        /^[ \t]*```/ { fence = !fence; next }
        fence { next }
        {
            line = $0
            while (match(line, /`[^`]+`/)) {
                span = " " substr(line, RSTART + 1, RLENGTH - 2)
                line = substr(line, RSTART + RLENGTH)
                while (match(span, /[^A-Za-z0-9_.\/-][a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?/)) {
                    print FILENAME ":" FNR "\t" substr(span, RSTART + 1, RLENGTH - 1)
                    span = substr(span, RSTART + RLENGTH)
                }
            }
        }' $docs |
    while IFS="$(printf '\t')" read -r where ident; do
        pkg=${ident%%.*}
        rest=${ident#*.}
        name=${rest%%.*}
        member=""
        [ "$rest" = "$name" ] || member=${rest#*.}
        [ -d "internal/$pkg" ] || continue
        case "$name" in go | md | json | sh) continue ;; esac
        files=$(find "internal/$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go')
        [ -n "$files" ] || continue
        # shellcheck disable=SC2086 # $files is a word list of paths.
        if ! grep -Eq "$(decl_re "$name")" $files; then
            echo "$where: \`$ident\`"
            continue
        fi
        [ -n "$member" ] || continue
        # shellcheck disable=SC2086 # $files is a word list of paths.
        if grep -Eq "^type $name " $files; then
            member_declared "$name" "$member" $files || echo "$where: \`$ident\`"
        elif ! grep -Eq "$(decl_re "$member")" $files; then
            echo "$where: \`$ident\`"
        fi
    done
)

if [ -n "$unresolved" ]; then
    echo "docscheck: docs name identifiers their package does not declare:" >&2
    echo "$unresolved" | sed 's/^/  /' >&2
    echo "docscheck: FAILED — rename or drop the stale reference" >&2
    exit 1
fi

echo "docscheck: OK — every pkg.Name the docs cite is declared"

# --- docs pages cited by path -------------------------------------------
# Each candidate is printed as "<where>\t<path from the repo root>"; only the
# text after "//" on a Go line counts, so string literals are not scanned.
gofiles=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print)
dangling=$(
    {
        # shellcheck disable=SC2086 # $docs is a word list with a glob.
        awk '
            {
                line = $0
                while (match(line, /docs\/[A-Za-z0-9_.-]+\.md/)) {
                    print FILENAME ":" FNR "\t" substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                }
                dir = FILENAME
                if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
                line = $0
                while (match(line, /\]\([^)#:]+\.md[)#]/)) {
                    print FILENAME ":" FNR "\t" dir "/" substr(line, RSTART + 2, RLENGTH - 3)
                    line = substr(line, RSTART + RLENGTH)
                }
            }' $docs
        # shellcheck disable=SC2086 # $gofiles is a word list of paths.
        awk '
            {
                c = index($0, "//")
                if (c == 0) next
                line = substr($0, c)
                while (match(line, /docs\/[A-Za-z0-9_.-]+\.md/)) {
                    print FILENAME ":" FNR "\t" substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                }
            }' $gofiles
    } |
    while IFS="$(printf '\t')" read -r where path; do
        [ -f "$path" ] || echo "$where: $path"
    done
)

if [ -n "$dangling" ]; then
    echo "docscheck: docs and comments cite pages that do not exist:" >&2
    echo "$dangling" | sed 's/^/  /' >&2
    echo "docscheck: FAILED — point the reference at an existing page or drop it" >&2
    exit 1
fi

echo "docscheck: OK — every cited docs page exists"

# --- source paths cited by the docs and comments -------------------------
# Same sources as above; a trailing "." ends a sentence, not the path.
stale=$(
    {
        # shellcheck disable=SC2086 # $docs is a word list with a glob.
        awk '
            {
                line = $0
                while (match(line, /internal\/[A-Za-z0-9_][A-Za-z0-9_.\/-]*/)) {
                    print FILENAME ":" FNR "\t" substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                }
            }' $docs
        # shellcheck disable=SC2086 # $gofiles is a word list of paths.
        awk '
            {
                c = index($0, "//")
                if (c == 0) next
                line = substr($0, c)
                while (match(line, /internal\/[A-Za-z0-9_][A-Za-z0-9_.\/-]*/)) {
                    print FILENAME ":" FNR "\t" substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                }
            }' $gofiles
    } |
    while IFS="$(printf '\t')" read -r where path; do
        path=$(printf '%s' "$path" | sed 's/\.*$//')
        [ -e "$path" ] || echo "$where: $path"
    done
)

if [ -n "$stale" ]; then
    echo "docscheck: docs and comments cite source paths that do not exist:" >&2
    echo "$stale" | sed 's/^/  /' >&2
    echo "docscheck: FAILED — point the reference at an existing path or drop it" >&2
    exit 1
fi

echo "docscheck: OK — every cited internal/ path exists"
