#!/usr/bin/env python3
"""Run one workload of the rela benchmark and print its result.

    python3 perfbench/run.py --workload cold-check|spec-grid|daemon-iterate \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--plant-wrong-verdict]

Run from the root of a checkout. The script builds the release `rela`
binary and the harness in `perfbench/harness` from source (into
$CARGO_TARGET_DIR, default `.bench_build`), prepares the seeded corpus
(cached under the target dir), measures for `--seconds` and prints two
JSON lines: a record of the run (host, toolchain, source revision,
corpus digest, sample counts and the workload's own named metrics),
then the result object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("cold-check", "spec-grid", "daemon-iterate")
HARNESS = os.path.join("perfbench", "harness")
REFERENCES = os.path.join("perfbench", "references", "spec-grid.json")
# trees whose content decides what is measured, hashed into every record
SOURCE_TREES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench")


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--plant-wrong-verdict", action="store_true",
                   help="expect a wrong verdict everywhere (self-test of the checks)")
    return p.parse_args(argv)


def target_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(root, target))


def run_logged(cmd, log_path, cwd, timeout, env=None):
    """Run `cmd` in a process group of its own, stderr to the log. On
    return every process of the group (a daemon the harness spawned,
    say) has been stopped and has exited."""
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(cmd) + "\n").encode())
        log.flush()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=log,
                                env=env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        finally:
            stop_group(proc)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def stop_group(proc):
    try:
        os.killpg(proc.pid, 9)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def tail(path, lines=30):
    try:
        with open(path, "rb") as f:
            return b"\n".join(f.read().splitlines()[-lines:]).decode(errors="replace")
    except OSError:
        return ""


def build(root, target, log_path):
    """Build `rela` and the harness; returns their paths."""
    for needed in ("Cargo.toml", "src", "crates", os.path.join(HARNESS, "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"{needed} is missing: run from the root of a rela checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rela", "--bin", "rela"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HARNESS, "Cargo.toml")],
    ]
    for cmd in steps:
        proc = run_logged(cmd, log_path, root, timeout=1500, env=env)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{tail(log_path)}")
    return (os.path.join(target, "release", "rela"),
            os.path.join(target, "release", "perfbench-harness"))


def source_digest(root):
    h = hashlib.sha256()
    for tree in SOURCE_TREES:
        path = os.path.join(root, tree)
        files = []
        if os.path.isfile(path):
            files = [path]
        else:
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def command_output(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def release_profile(root):
    try:
        import tomllib
    except ImportError:  # Python < 3.11: record the profile by name only
        return None
    profiles = {}
    for name, path in (("rela", "Cargo.toml"), ("harness", os.path.join(HARNESS, "Cargo.toml"))):
        with open(os.path.join(root, path), "rb") as f:
            profiles[name] = tomllib.load(f).get("profile", {}).get("release", {})
    return profiles


def host_record(root):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"], root),
        "git_revision": command_output(["git", "rev-parse", "HEAD"], root),
        "source_sha256": source_digest(root),
        "profile": "release",
        "release_profile": release_profile(root),
    }


def measure(args, root):
    target = target_dir(root)
    state = os.path.join(target, "perfbench")
    os.makedirs(state, exist_ok=True)
    log_path = os.path.join(state, "run.log")
    rela, harness = build(root, target, log_path)
    # keep every temporary file (the daemon's spools, say) in the checkout
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    prep = run_logged([harness, "prepare", "--workload", args.workload, "--seed", str(args.seed),
                       "--size", args.size, "--cache", os.path.join(state, "corpus")],
                      log_path, root, timeout=850, env=env)
    if prep.returncode != 0:
        raise BenchError(f"corpus preparation failed\n{tail(log_path)}")
    corpus = prep.stdout.decode().strip().splitlines()[-1]

    work = os.path.join(state, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    nproc = len(os.sched_getaffinity(0))
    cmd = [harness, "measure", "--workload", args.workload, "--corpus", corpus,
           "--seconds", str(args.seconds), "--trace", args.trace, "--rela", rela,
           "--threads", str(nproc), "--work", work,
           "--references", os.path.join(root, REFERENCES)]
    if args.plant_wrong_verdict:
        cmd.append("--plant-wrong-verdict")
    started = time.monotonic()
    try:
        proc = run_logged(cmd, log_path, work, timeout=args.seconds + 120, env=env)
    finally:
        trace = os.path.join(work, "trace.json")
        if os.path.exists(trace):
            traces = os.path.join(state, "traces")
            os.makedirs(traces, exist_ok=True)
            os.replace(trace, os.path.join(traces, f"{args.workload}-s{args.seed}.json"))
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"measurement failed\n{tail(log_path)}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    with open(os.path.join(corpus, "manifest.json")) as f:
        manifest = json.load(f)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace == "1",
        "size": args.size,
        "measure_wall_s": time.monotonic() - started,
        "host": host_record(root),
        "corpus": {"key": manifest["key"], "digest": manifest["digest"]},
        "samples": result["samples"],
        "detail": result["detail"],
    }
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    return record, final


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        record, final = measure(args, root)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
