#!/usr/bin/env python3
"""Build smlsc and the benchmark harness from source, then run one benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload edit_loop --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest            # determinism self-test (2,000 units)

Binaries go to $CARGO_TARGET_DIR (default: .bench_build).  Runs work in
.perfbench_work/, whose 20,000 source files are kept from one run to the
next: each run rewrites them in place, because creating them is slow and
is not what the benchmark measures.  The last line of standard output is
the result object.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_TIMEOUT_S = 170


def build(env):
    """Builds the release CLI and the harness; returns their paths."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "smlsc", "--bin", "smlsc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "smlsc"), os.path.join(release, "perfbench")


def stop_daemons(smlsc, work):
    """Backstop: stops a daemon the harness could not stop itself."""
    src = os.path.join(work, "src")
    if os.path.exists(os.path.join(src, ".smlsc-bins", "daemon.sock")):
        subprocess.run([smlsc, "daemon", "stop", src], stdout=sys.stderr, timeout=30)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["cold_build", "edit_loop", "daemon_loop"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or
                                              os.path.join(ROOT, ".bench_build"))
    smlsc, harness = build(env)

    work = os.path.join(ROOT, ".perfbench_work", "selftest" if args.selftest else "tree")
    os.makedirs(work, exist_ok=True)
    stop_daemons(smlsc, work)
    if args.selftest:
        cmd = [harness, "selftest", "--seed", str(args.seed)]
    else:
        cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smlsc", smlsc, "--work", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = 1, ""
        print(f"perfbench: no result within {HARNESS_TIMEOUT_S}s", file=sys.stderr)
    finally:
        stop_daemons(smlsc, work)
    if code != 0:
        sys.stderr.write(out)
        sys.exit(code or 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
