#!/usr/bin/env bash
# CI gate with two profiles (default: full). Run from the repo root.
#
#   ci.sh fast — the edit loop gate: formatting, lints (warnings are
#                errors), the debug test pyramid, and a compile check of
#                the perfbench package.
#   ci.sh full — everything in fast plus the docs tier, release-mode tests,
#                bench compile + smoke run, examples, and the
#                bench-regression gate (ci_bench: writes the stable
#                BENCH_TRAJECTORY.json and fails on >15% Gflop/s regression
#                vs BENCH_BASELINE.json).
#
# Per-tier wall-clock timings are printed at the end of the run, and —
# when running under GitHub Actions — appended to $GITHUB_STEP_SUMMARY as a
# markdown table so CI wall-clock regressions are visible per tier.
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"
case "$mode" in
  fast|full) ;;
  *) echo "usage: $0 [fast|full]" >&2; exit 2 ;;
esac

tier_names=()
tier_secs=()
tier() {
  local name="$1"; shift
  echo "==> $name"
  local t0=$SECONDS
  "$@"
  tier_names+=("$name")
  tier_secs+=("$((SECONDS - t0))")
}

doc_tier() {
  # Docs tier: broken intra-doc links and malformed rustdoc are errors, so
  # the API reference (the operator-layer contract lives there) cannot rot.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

md_link_tier() {
  # Markdown link lint: every intra-repo link target in the tracked
  # markdown (README, docs/, ROADMAP, ...) must exist on disk, and every
  # docs/*.md page must be reachable from README.md by following those
  # links (BFS), so the docs book cannot rot when files move and a new
  # page cannot land orphaned.
  python3 - <<'PY'
import re, subprocess, sys
from pathlib import Path

# -co: tracked plus untracked-but-not-ignored, so a brand-new page is
# linted (and orphan-checked) before it is ever `git add`ed.
files = subprocess.run(
    ["git", "ls-files", "-co", "--exclude-standard", "*.md"],
    capture_output=True, text=True, check=True,
).stdout.split()
# Retrieved reference material (paper scrapes) is not ours to fix.
files = [f for f in files if f not in ("PAPERS.md", "SNIPPETS.md", "PAPER.md")]
link = re.compile(r"\]\(([^)\s]+)\)")
bad = []
edges = {}  # resolved md path -> set of resolved md link targets
for f in files:
    text = Path(f).read_text(encoding="utf-8")
    targets = set()
    for target in link.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = Path(f).parent / path
        if not resolved.exists():
            bad.append(f"{f}: broken link -> {target}")
        elif resolved.suffix == ".md":
            targets.add(str(resolved.resolve().relative_to(Path.cwd())))
    edges[f] = targets

# Orphan-page detection: BFS over the link graph from README.md.
reachable, frontier = {"README.md"}, ["README.md"]
while frontier:
    for t in edges.get(frontier.pop(), ()):
        if t not in reachable:
            reachable.add(t)
            frontier.append(t)
for f in files:
    if f.startswith("docs/") and f not in reachable:
        bad.append(f"{f}: orphan page (not reachable from README.md)")

if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(1)
print(f"markdown links ok across {len(files)} file(s); "
      f"{sum(1 for f in files if f.startswith('docs/'))} docs page(s) reachable")
PY
}

examples_tier() {
  # Build every example, and run the tuning walk-through, whose asserts
  # check the warm path and whose last lines split the tuner's time.
  cargo build --examples
  cargo run --release -q --example plan_tuning
}

tier "fmt"              cargo fmt --check
tier "clippy"           cargo clippy --workspace --all-targets -- -D warnings
tier "test (debug)"     cargo test --workspace -q
# perfbench is a Cargo workspace of its own, so the tiers above never build
# it: check it here so an API change cannot break the benchmark unnoticed.
tier "perfbench check"  cargo check --offline --manifest-path perfbench/Cargo.toml

if [ "$mode" = full ]; then
  tier "rustdoc"        doc_tier
  tier "md links"       md_link_tier
  # Release tier: the kernel property suites must also hold under full
  # optimization (SIMD paths, FMA contraction, aggressive inlining).
  tier "test (release)" cargo test --workspace --release -q
  tier "bench build"    cargo bench --workspace --no-run
  # Compile-and-run-once over the whole bench suite so new kernels cannot
  # silently rot: a panicking or mis-wired benchmark fails CI here.
  tier "bench smoke"    cargo bench --workspace -- --test
  tier "examples"       examples_tier
  # Serving smoke: drive a live multi-tenant server with mixed traffic and
  # verify every coalesced reply against a serial reference.
  tier "serve smoke"    cargo run --release -q -p sparseopt-bench --bin traffic -- --smoke
  # Perf gate: pinned micro-suite vs the committed baseline trajectory.
  tier "bench gate"     cargo run --release -q -p sparseopt-bench --bin ci_bench
fi

echo
echo "Tier timings ($mode):"
for i in "${!tier_names[@]}"; do
  printf '  %-16s %4ss\n' "${tier_names[$i]}" "${tier_secs[$i]}"
done

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### ci.sh $mode tier timings"
    echo
    echo "| tier | seconds |"
    echo "|---|---:|"
    for i in "${!tier_names[@]}"; do
      printf '| %s | %s |\n' "${tier_names[$i]}" "${tier_secs[$i]}"
    done
  } >> "$GITHUB_STEP_SUMMARY"
fi

echo "CI green ($mode)."
