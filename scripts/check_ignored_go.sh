#!/bin/sh
# check_ignored_go.sh — fail if .gitignore hides Go source.
#
# An unanchored pattern meant for a built binary (`aggbench`) also matches
# the directory of the same name, and a source file added there is then
# silently never committed: the tree builds for its author and for nobody
# else. Two checks: no Go file in the working tree is ignored, and — what
# a fresh checkout can still see — no package directory would ignore a Go
# file added to it.
#
# Usage: sh scripts/check_ignored_go.sh  (or: make ignore-guard)
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

ignored=$(git ls-files --others --ignored --exclude-standard -- '*.go')
if [ -n "$ignored" ]; then
    echo "Go files matched by .gitignore (git will never add them):" >&2
    echo "$ignored" >&2
    exit 1
fi

status=0
for dir in $($GO list -f '{{.Dir}}' ./... && cd benchmark && $GO list -f '{{.Dir}}' ./...); do
    if git check-ignore -q "$dir/new_file.go"; then
        echo ".gitignore would hide a Go file added to $dir:" >&2
        git check-ignore -v "$dir/new_file.go" >&2
        status=1
    fi
done
exit $status
