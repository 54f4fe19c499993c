#!/usr/bin/env python3
"""Build the programs under test from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot-keys --seed 1 --seconds 20 --trace 0

Everything it writes stays under .bench_build/ in the checkout (the Go
build cache included). The last line of its output is the benchmark's
JSON result; the exit status is non-zero on a failed build, a wrong
answer, or a run that could not finish.
"""
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAMS = ["contentiond", "experiments"]


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOFLAGS="-buildvcs=false",
               CGO_ENABLED="0")
    return env


def build(env):
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    steps = [
        ["go", "build", "-o", bindir + os.sep] + ["./cmd/" + p for p in PROGRAMS],
        ["go", "-C", "perfbench", "build", "-o", os.path.join(bindir, "perfbench"), "."],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return bindir


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd")):
        sys.exit("perfbench: run from the root of a repository checkout (no go.mod or cmd/ here)")
    env = go_env()
    bindir = build(env)
    outdir = os.path.join(BUILD, "spans")
    os.makedirs(outdir, exist_ok=True)
    # Go's flag package takes --name as well as -name, so the arguments
    # pass through unchanged. The benchmark runs in its own process
    # group: whatever ends this script also ends the daemons it started.
    cmd = [os.path.join(bindir, "perfbench"), "-bin", bindir, "-out", outdir] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit("perfbench: stopped")

    signal.signal(signal.SIGTERM, kill_group)
    signal.signal(signal.SIGINT, kill_group)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        kill_group()
    sys.exit(rc)


if __name__ == "__main__":
    main()
