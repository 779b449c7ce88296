#!/usr/bin/env bash
# linkscan.sh prints every non-test func outside bench/ that no program links,
# one "<package>.<Type>.<name> <file>" line each, sorted. Run it from the repo
# root.
#
# It builds every program (cmd/* and the bench/ harness) without inlining and
# compares the rmtk text symbols of the binaries with the func declarations in
# the source. Package main symbols are renamed to their cmd/ path, generic
# instantiations and closures fold into their function, and init/main are
# skipped. A method a program calls only through an interface it never
# converts to (a String no fmt call reaches) counts as unlinked.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for c in cmd/*/; do
  c=${c%/}
  go build -gcflags=all=-l -o "$out/${c#cmd/}" "./$c"
done
(cd bench && go build -gcflags=all=-l -o "$out/bench" .)
for b in "$out"/*; do go tool nm "$b" | sed "s| main\.| rmtk/cmd/${b##*/}.|"; done |
  sed -nE 's/^ *[0-9a-f]+ [Tt] (rmtk.*)/\1/p' |
  sed -E ':a; s/\[[^][]*\]//; ta; s/[()*]//g; s/-fm$//; s/(\.func[0-9]+)+(\.[0-9]+)*$//' |
  sort -u >"$out/linked"
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | while read -r f; do
  pkg="rmtk/$(dirname "$f")"
  pkg="${pkg%/.}"
  sed -nE 's/^func (\([a-zA-Z_0-9]+ \*?([A-Za-z_0-9]+)(\[[^]]*\])?\) )?([A-Za-z_0-9]+).*/\2 \4/p' "$f" |
    while read -r a b; do if [ -z "$b" ]; then echo "$pkg.$a $f"; else echo "$pkg.$a.$b $f"; fi; done
done | grep -vE '\.(init|main) ' | sort -u >"$out/decls"
awk 'NR==FNR {l[$1]=1; next} !($1 in l)' "$out/linked" "$out/decls"
