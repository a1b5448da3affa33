#!/usr/bin/env bash
# Size: print the repository's footprint the way CHANGES.md reports it —
# non-test Go lines of the root module (everything outside benchmark/, which
# is its own module), and per package the exported symbols: top-level
# declarations (funcs, methods, types, vars, consts) plus exported struct
# fields, as `go doc -all` shows them.
#
# Usage: scripts/size.sh   (or: make size)
# Environment: GO (go tool). Reads only; builds nothing.
set -eu
go=${GO:-go}
cd "$(dirname "$0")/.."

# One line per package: import path, then its non-test Go files.
pkgs=$($go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./...)

total=0
printf '%-36s %7s %6s %6s\n' package lines decls fields
while read -r path files; do
	lines=0
	if [ -n "$files" ]; then
		# shellcheck disable=SC2086 # one word per file path
		lines=$(cat $files | wc -l)
	fi
	total=$((total + lines))
	# go doc fails on a main package with nothing exported; count it as 0.
	counts=$($go doc -all "$path" 2>/dev/null | awk '
		/^(func|type|var|const) [A-Za-z_(]/ && !/^(var|const) \($/ {
			decls++
		}
		/^(var|const) \($/ { block = 1; next }
		/^type [A-Z][A-Za-z0-9_]* struct \{$/ { strct = 1; next }
		/^[)}]/ { block = 0; strct = 0; next }
		block && /^\t[A-Z]/ {
			sub(/^\t/, ""); sub(/[ =].*/, ""); decls++
		}
		strct && /^\t\*?[A-Z]/ {
			sub(/^\t/, "")
			n = split($0, w, /[ \t]+/)
			# "A, B T" declares two fields; an embedded "T" or "*T" one.
			c = 1
			for (i = 1; i < n && w[i] ~ /,$/; i++) c++
			fields += c
		}
		END { printf "%d %d\n", decls, fields }')
	printf '%-36s %7d %6s %6s\n' "$path" "$lines" ${counts}
done <<<"$pkgs"
printf '%-36s %7d\n' total "$total"
