#!/usr/bin/env bash
# Codegen fingerprint of the kernel sets compiled into one binary.
#
# Usage:
#   scripts/kernel_asm.sh <binary>
#
# e.g. on the kernel-set probe:
#   cargo build --release -p shalom-kernels --example family_probe
#   scripts/kernel_asm.sh target/release/examples/family_probe
#
# Prints one line per `shalom_kernels::family::*` function in the
# binary's .text, in address order:
#
#   <symbol>[#n] insns=<count> addr%64=<a> loops%64=<l1,l2,..> hash=<h>
#
# `#n` numbers a name that occurs more than once. `loops%64` is the
# address mod 64 of every backward-branch target (the loop heads), in
# instruction order. `hash` is a SHA-256 prefix of the function's
# `objdump -d` text with instruction addresses, branch targets,
# RIP-relative displacements and symbol hashes normalized, so two builds
# whose kernels compile to the same instructions print the same hash even
# when the functions sit at other addresses. Diffing the output of two
# builds tells a code change (hash differs) from a layout shift (only the
# mod-64 columns differ).
set -euo pipefail

if [ "$#" -ne 1 ] || [ ! -f "$1" ]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

objdump -d -C --no-show-raw-insn -j .text "$1" | awk -v dir="$work" '
function hex(s,    i, v) {
  v = 0
  s = tolower(s)
  for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
  return v
}
BEGIN { h16 = "::h"; for (i = 0; i < 16; i++) h16 = h16 "[0-9a-f]" }
function flush() {
  if (name == "") return
  printf "%s\t%d\t%d\t%s\n", name, insns, start % 64, (loops == "" ? "-" : loops) > (dir "/summary")
  close(body)
}
/^[0-9a-f]+ <.*>:$/ {
  flush()
  name = ""
  sym = $0
  sub(/^[0-9a-f]+ </, "", sym)
  sub(/>:$/, "", sym)
  gsub(h16, "", sym)
  if (index(sym, "shalom_kernels::family::") != 1) next
  seen[sym]++
  name = seen[sym] > 1 ? sym "#" seen[sym] : sym
  start = hex($1)
  insns = 0
  loops = ""
  body = dir "/" ++nfn
  printf "" > body
  next
}
name != "" && /^ *[0-9a-f]+:\t/ {
  line = $0
  addr = line
  sub(/:.*/, "", addr)
  gsub(/ /, "", addr)
  sub(/^ *[0-9a-f]+:\t/, "", line)
  insns++
  # A direct branch whose target lies at or before it is a loop back-edge.
  if (split(line, f, /[ \t]+/) >= 2 && f[1] ~ /^(j[a-z]+|loop[a-z]*)$/ && f[2] ~ /^[0-9a-f]+$/) {
    t = hex(f[2])
    if (t <= hex(addr) && t >= start) loops = loops (loops == "" ? "" : ",") (t % 64)
  }
  # Position-independent text: drop absolute branch targets and comments,
  # RIP-relative displacements and the symbol hashes that vary by build.
  sub(/[ \t]*#.*$/, "", line)
  gsub(/[0-9a-f]+ </, "<", line)
  gsub(/-?0x[0-9a-f]+\(%rip\)/, "X(%rip)", line)
  gsub(h16, "", line)
  print line > body
}
END { flush() }
'

[ -f "$work/summary" ] || { echo "no shalom_kernels::family:: functions in $1" >&2; exit 1; }
i=0
while IFS=$'\t' read -r name insns addr loops; do
  i=$((i + 1))
  hash=$(sha256sum < "$work/$i" | cut -c1-16)
  printf '%s insns=%s addr%%64=%s loops%%64=%s hash=%s\n' "$name" "$insns" "$addr" "$loops" "$hash"
done < "$work/summary"
