#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no tracked build artifacts"
if git ls-files -- 'target/' | grep -q .; then
  echo "error: build artifacts under target/ are tracked; git rm -r --cached target/" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> parallel equivalence (wavefront scheduler, jobs > 1)"
cargo test -q --test parallel

echo "==> report rendering goldens (three strategies, jobs 1 and 4)"
cargo test -q --test report_goldens

echo "==> sealed bins equal to_bytes of their bins (jobs 1 and 2, store hits)"
cargo test -q --test sealed_bodies

echo "==> corruption recovery + concurrent store sharing"
cargo test -q --test corruption
cargo test -q --test store_concurrency
cargo test -q -p smlsc --test cache_cli

echo "==> smlsc build --jobs 4 smoke"
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
printf 'structure Util = struct fun inc x = x + 1 end\n' > "$d/util.sml"
printf 'structure Main = struct val v = Util.inc 41 end\n' > "$d/main.sml"
./target/release/smlsc build --jobs 4 --explain "$d"

echo "==> artifact-store two-pass cache smoke"
# Pass 1 populates the store; wiping the project's bins makes pass 2 a
# cold session that must be served entirely from the store: the stats
# JSON shows store hits and no unit compiles at all.
store="$d/store"
rm -rf "$d/.smlsc-bins"   # the --jobs smoke above already built this dir
./target/release/smlsc build --store "$store" "$d"
rm -rf "$d/.smlsc-bins"
stats=$(./target/release/smlsc build --stats --store "$store" "$d" | grep '^{')
echo "$stats" | grep -q '"store.hit":2' \
  || { echo "error: warm-store rebuild was not all store hits: $stats" >&2; exit 1; }
if echo "$stats" | grep -q '"irm.units_compiled"'; then
  echo "error: warm-store rebuild compiled units: $stats" >&2; exit 1
fi
./target/release/smlsc cache verify --store "$store"
./target/release/smlsc cache stats --store "$store"

echo "==> warm null-build smoke (stamp cache + indexed archive)"
w=$(mktemp -d)
trap 'rm -rf "$d" "$w"' EXIT
printf 'structure Util = struct fun inc x = x + 1 end\n' > "$w/util.sml"
printf 'structure Main = struct val v = Util.inc 41 end\n' > "$w/main.sml"
./target/release/smlsc build "$w"
# The second build of an unchanged project must compile nothing, read
# no source file (every stamp hits), and parse only the archive index.
stats=$(./target/release/smlsc build --stats "$w" | grep '^{')
echo "$stats" | grep -q '"stamp.hits":2' \
  || { echo "error: warm rebuild did not hit every stamp: $stats" >&2; exit 1; }
echo "$stats" | grep -q '"bin.index_only":2' \
  || { echo "error: warm rebuild did not load bins index-only: $stats" >&2; exit 1; }
for bad in '"source.reads"' '"irm.units_compiled"'; do
  if echo "$stats" | grep -q "$bad"; then
    echo "error: warm rebuild did source work ($bad): $stats" >&2; exit 1
  fi
done

echo "==> perf: ledger + profiler test suites"
cargo test -q -p smlsc-core --lib
cargo test -q -p smlsc-bench --lib
cargo test -q -p smlsc --test profile_cli
cargo test -q --test telemetry
cargo test -q --test decoders -p smlsc-core

echo "==> perf: warm-build ledger smoke (profile + history)"
p=$(mktemp -d)
trap 'rm -rf "$d" "$w" "$p"' EXIT
printf 'structure Util = struct fun inc x = x + 1 end\n' > "$p/util.sml"
printf 'structure Main = struct val v = Util.inc 41 end\n' > "$p/main.sml"
./target/release/smlsc build --jobs 4 "$p"
./target/release/smlsc profile --jobs 4 "$p"
./target/release/smlsc history "$p"
ledger="$p/.smlsc-bins/builds.jsonl"
# Two builds (build + profile's build), two records; the second
# compiled nothing.
[ "$(wc -l < "$ledger")" -eq 2 ] \
  || { echo "error: expected 2 ledger records:" >&2; cat "$ledger" >&2; exit 1; }
tail -1 "$ledger" | grep -q '"compiled":0' \
  || { echo "error: warm build compiled units:" >&2; tail -1 "$ledger" >&2; exit 1; }

echo "==> perf: regression gate vs the committed BENCH_monorepo.json"
# One `monorepo --smoke` run: 5k-unit rows for every mode (stamped,
# paranoid, daemon, store) at jobs 1 and 2.
scripts/check_bench

echo "==> perf: monorepo scale smoke (N=100k, counters asserted)"
# Cold + no-op + one-leaf edit at 100,000 units, gated on counters:
# the no-op reads zero sources and schedules an empty dirty set, the
# import DAG rehydrates from the pack's graph section, and the leaf
# edit's dirty seed and cone are both exactly the one edited unit.
./target/release/monorepo --scale-smoke

echo "==> chaos: fault-injection test suites"
cargo test -q -p smlsc-faults
cargo test -q -p smlsc-store
cargo test -q -p smlsc-daemon
cargo test -q --test chaos
cargo test -q --test keep_going
cargo test -q --test daemon_concurrency

echo "==> chaos: fault-plan, lock and scheduler isolation (warm_builds, crash_recovery, pack appends, smlsc-store, store_concurrency, parallel, keep_going, seeded_builds, profile, interner, stamp spaces, scan and session open, parallel link, store-object, daemon-frame and ledger-line decoders, interface pids; 20 runs)"
for i in $(seq 1 20); do
  cargo test -q --test warm_builds || { echo "error: warm_builds failed on run $i" >&2; exit 1; }
  cargo test -q --test crash_recovery || { echo "error: crash_recovery failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-core --lib pack || { echo "error: pack unit tests failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc --test crash_recovery -- pack_append concurrent_builds || { echo "error: pack append crash/concurrency cases failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-store || { echo "error: smlsc-store failed on run $i" >&2; exit 1; }
  cargo test -q --test store_concurrency || { echo "error: store_concurrency failed on run $i" >&2; exit 1; }
  cargo test -q --test parallel || { echo "error: parallel failed on run $i" >&2; exit 1; }
  cargo test -q --test keep_going || { echo "error: keep_going failed on run $i" >&2; exit 1; }
  cargo test -q --test seeded_builds || { echo "error: seeded_builds failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-core --lib profile || { echo "error: profile unit tests failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-ids --test threads || { echo "error: interner/stamp thread tests failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-statics --test stamp_spaces || { echo "error: stamp_spaces failed on run $i" >&2; exit 1; }
  cargo test -q --test session_open || { echo "error: session_open failed on run $i" >&2; exit 1; }
  cargo test -q --test parallel_link || { echo "error: parallel_link failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-core --test decoders -- store_objects || { echo "error: store-object decoder cases failed on run $i" >&2; exit 1; }
  cargo test -q -p smlsc-core --test decoders -- daemon_frames max_frame deep_nesting ledger_lines || { echo "error: frame and ledger decoder cases failed on run $i" >&2; exit 1; }
  cargo test -q --test interface_pids || { echo "error: interface_pids failed on run $i" >&2; exit 1; }
done

echo "==> chaos: seeded storms (--jobs 4, three fixed seeds)"
c=$(mktemp -d)
trap 'rm -rf "$d" "$c"' EXIT
printf 'structure Base = struct val n = 10 end\n' > "$c/base.sml"
for m in a b c d; do
  printf 'structure Mid_%s = struct val v = Base.n + 1 end\n' "$m" > "$c/mid_$m.sml"
done
printf 'structure Top = struct val s = Mid_a.v + Mid_b.v + Mid_c.v + Mid_d.v end\n' > "$c/top.sml"
for seed in 11 42 1994; do
  cstore="$c/store-$seed"
  rm -rf "$c/.smlsc-bins"
  SMLSC_FAULTS="seed=$seed;store.publish=torn%25;store.publish=io%20;store.fetch=io%20;store.fetch=torn%20;store.lock=io%10" \
    ./target/release/smlsc build --keep-going --jobs 4 --store "$cstore" "$c"
  # The storm may have torn published objects: the first verify
  # quarantines them (nonzero exit expected), gc purges the
  # quarantine, and the store must then verify clean.
  ./target/release/smlsc cache verify --store "$cstore" || true
  ./target/release/smlsc cache gc --store "$cstore"
  ./target/release/smlsc cache verify --store "$cstore"
done

echo "==> chaos: keep-going + exit-code smoke"
k=$(mktemp -d)
trap 'rm -rf "$d" "$c" "$k"' EXIT
printf 'structure Ok = struct val x = 1 end\n' > "$k/ok.sml"
printf 'structure Bad = struct val y = 1 + "s" end\n' > "$k/bad.sml"
printf 'structure Uses_bad = struct val z = Bad.y end\n' > "$k/uses_bad.sml"
set +e
out=$(./target/release/smlsc build -k --jobs 4 "$k" 2>&1); code=$?
set -e
[ "$code" -eq 1 ] || { echo "error: expected exit 1, got $code: $out" >&2; exit 1; }
echo "$out" | grep -q '1 failed, 1 skipped' \
  || { echo "error: missing keep-going summary: $out" >&2; exit 1; }
set +e
./target/release/smlsc build --inject-faults 'compile.unit=panic(bad)' "$k" 2>/dev/null; code=$?
set -e
[ "$code" -eq 3 ] || { echo "error: expected internal-error exit 3, got $code" >&2; exit 1; }

echo "==> crash: crash-point recovery test suites"
cargo test -q --test crash_recovery
cargo test -q -p smlsc --test crash_recovery
cargo test -q -p smlsc --test daemon_signals

echo "==> crash: kill-at-pack-save + doctor --fix smoke"
x=$(mktemp -d)
trap 'rm -rf "$d" "$c" "$k" "$x"' EXIT
printf 'structure Util = struct fun inc x = x + 1 end\n' > "$x/util.sml"
printf 'structure Main = struct val v = Util.inc 41 end\n' > "$x/main.sml"
# Enough units that a one-stamp segment fits the pack's 1/32 growth
# bound, so a `touch` below appends one.
for i in $(seq 1 40); do
  printf 'structure M%s = struct val v = Util.inc %s end\n' "$i" "$i" > "$x/m$i.sml"
done
# The injected crash aborts the build mid-pack-rename (SIGABRT = 134).
set +e
./target/release/smlsc build --no-daemon --inject-faults 'pack.save=crash(staged)' "$x" 2>/dev/null
code=$?
set -e
[ "$code" -eq 134 ] || { echo "error: expected SIGABRT exit 134, got $code" >&2; exit 1; }
# The next plain build recovers without any manual cleanup.
./target/release/smlsc build --no-daemon "$x"
# Stamps and the import graph live in bins.pack: no other cache file.
for f in stamps.json deps.pack; do
  [ ! -e "$x/.smlsc-bins/$f" ] || { echo "error: a build left $f behind" >&2; exit 1; }
done
# A `touch` (dated back, so its new stamp is not racy) reads and
# digests that one file and reuses its recorded analysis: no parse, no
# recompile.  It appends a stamp-only segment; flip a byte of its stamp
# section, just before the segment's 40-byte footer, so the doctor must
# report a torn tail.
touch -d '1 minute ago' "$x/m1.sml"
./target/release/smlsc build --no-daemon --stats "$x" > "$x/touch.out"
grep -q ' 0 recompiled' "$x/touch.out" \
  || { echo "error: touch recompiled:" >&2; cat "$x/touch.out" >&2; exit 1; }
grep -q '"source.reads":1[,}]' "$x/touch.out" \
  || { echo "error: touch read other than one file:" >&2; cat "$x/touch.out" >&2; exit 1; }
if grep -q '"irm.deps_cache_misses"' "$x/touch.out"; then
  echo "error: touch re-parsed a file:" >&2; cat "$x/touch.out" >&2; exit 1
fi
pack="$x/.smlsc-bins/bins.pack"
printf '\377' | dd of="$pack" bs=1 seek=$(( $(stat -c %s "$pack") - 43 )) conv=notrunc status=none
# Mangle every other state kind the doctor audits, then assert its exit
# codes: 4 on detection, 0 after --fix, 0 (healthy) on re-audit.
printf '{"v":1,"torn' >> "$x/.smlsc-bins/builds.jsonl"
printf 'half-staged' > "$x/.smlsc-bins/bins.tmp-99-0"
printf '4294967295\n' > "$x/.smlsc-bins/daemon.lock"
set +e
./target/release/smlsc doctor "$x" > "$x/doctor.json"; code=$?
set -e
[ "$code" -eq 4 ] || { echo "error: doctor on mangled state: expected 4, got $code" >&2; cat "$x/doctor.json" >&2; exit 1; }
grep -q '"verdict":"issues-found"' "$x/doctor.json" \
  || { echo "error: doctor verdict not issues-found:" >&2; cat "$x/doctor.json" >&2; exit 1; }
grep -q 'torn tail' "$x/doctor.json" \
  || { echo "error: doctor missed the torn stamp segment:" >&2; cat "$x/doctor.json" >&2; exit 1; }
./target/release/smlsc doctor --fix "$x" > "$x/doctor-fix.json" \
  || { echo "error: doctor --fix failed" >&2; cat "$x/doctor-fix.json" >&2; exit 1; }
grep -q '"verdict":"repaired"' "$x/doctor-fix.json" \
  || { echo "error: doctor --fix verdict not repaired:" >&2; cat "$x/doctor-fix.json" >&2; exit 1; }
./target/release/smlsc doctor "$x" > "$x/doctor-clean.json" \
  || { echo "error: post-fix audit not clean" >&2; cat "$x/doctor-clean.json" >&2; exit 1; }
grep -q '"verdict":"healthy"' "$x/doctor-clean.json" \
  || { echo "error: post-fix verdict not healthy:" >&2; cat "$x/doctor-clean.json" >&2; exit 1; }
# The repaired project still builds warm.
./target/release/smlsc build --no-daemon "$x"

echo "==> daemon: resident-session + socket test suites"
cargo test -q -p smlsc-daemon
cargo test -q -p smlsc-core resident
cargo test -q --test daemon_concurrency
cargo test -q -p smlsc --test daemon_cli
# A socket whose "daemon" drops every request: one warning, an in-process build.
cargo test -q -p smlsc --test daemon_cli -- drops_every_request

echo "==> daemon: warm no-op + one-leaf-edit smoke"
g=$(mktemp -d)
trap './target/release/smlsc daemon stop "$g" >/dev/null 2>&1 || true; rm -rf "$d" "$c" "$k" "$x" "$g"' EXIT
printf 'structure Util = struct fun inc x = x + 1 end\n' > "$g/util.sml"
printf 'structure Main = struct val v = Util.inc 41 end\n' > "$g/main.sml"
./target/release/smlsc build "$g"
./target/release/smlsc daemon start "$g"
./target/release/smlsc daemon status "$g"
# A no-op build dispatches to the daemon's resident session: every
# rebuild decision is a stamp hit, no source is re-read, and the pack
# index is not reopened (it lives in daemon memory).
stats=$(./target/release/smlsc build --stats "$g" | grep '^{')
echo "$stats" | grep -q '"stamp.hits":2' \
  || { echo "error: daemon no-op did not hit every stamp: $stats" >&2; exit 1; }
for bad in '"source.reads"' '"bin.index_only"' '"irm.units_compiled"'; do
  if echo "$stats" | grep -q "$bad"; then
    echo "error: daemon no-op re-read state ($bad): $stats" >&2; exit 1
  fi
done
# Edit one leaf and build at once: the build drains the write's inotify
# event under the build lock, so the edit is seen with no settling.
printf 'structure Util = struct fun inc x = x + 2 end\n' > "$g/util.sml"
out=$(./target/release/smlsc build --stats "$g")
echo "$out" | grep -q '1 recompiled, 1 reused' \
  || { echo "error: one-leaf edit did not recompile exactly one unit: $out" >&2; exit 1; }
stats=$(echo "$out" | grep '^{')
echo "$stats" | grep -q '"source.reads":1' \
  || { echo "error: daemon re-read untouched sources: $stats" >&2; exit 1; }
./target/release/smlsc daemon status "$g" | grep -q '"daemon.invalidations":1' \
  || { echo "error: the build did not apply exactly the one-leaf delta" >&2; exit 1; }
./target/release/smlsc daemon stop "$g"
[ ! -e "$g/.smlsc-bins/daemon.sock" ] \
  || { echo "error: daemon stop left the socket behind" >&2; exit 1; }
[ ! -e "$g/.smlsc-bins/daemon.lock" ] \
  || { echo "error: daemon stop left the lockfile behind" >&2; exit 1; }

echo "==> daemon: keep-going parity, in-process vs daemon"
# One unit fails to elaborate, its dependent is skipped, and one unit
# warns.  The daemon must print what the in-process build printed and
# exit with the same code; only the in-process `loaded` banner differs.
s=$(mktemp -d)
trap './target/release/smlsc daemon stop "$g" >/dev/null 2>&1 || true; ./target/release/smlsc daemon stop "$s" >/dev/null 2>&1 || true; rm -rf "$d" "$c" "$k" "$x" "$g" "$s"' EXIT
printf 'structure A = struct val x = 1 + "s" end\n' > "$s/a.sml"
printf 'structure B = struct val y = A.x end\n' > "$s/b.sml"
printf 'structure C = struct fun hd (x :: _) = x end\n' > "$s/c.sml"
{ ./target/release/smlsc build -k --explain --no-daemon "$s" 2>&1 && echo "exit 0" || echo "exit $?"; } \
  | grep -v '^loaded ' > "$g/parity-in-process.txt"
rm -rf "$s/.smlsc-bins"
./target/release/smlsc daemon start "$s"
{ ./target/release/smlsc build -k --explain "$s" 2>&1 && echo "exit 0" || echo "exit $?"; } \
  | grep -v '^loaded ' > "$g/parity-daemon.txt"
./target/release/smlsc daemon stop "$s"
diff "$g/parity-in-process.txt" "$g/parity-daemon.txt" \
  || { echo "error: the daemon's keep-going output differs from the in-process build" >&2; exit 1; }
grep -q '^exit 1$' "$g/parity-daemon.txt" \
  || { echo "error: keep-going build did not exit 1:" >&2; cat "$g/parity-daemon.txt" >&2; exit 1; }
grep -q '"daemon":1' "$s/.smlsc-bins/builds.jsonl" \
  || { echo "error: the parity build was not served by the daemon" >&2; exit 1; }

echo "ci: all green"
