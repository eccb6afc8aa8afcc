#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (a few minutes, most of it
the first build).

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:
  * every workload runs end to end, traced and untraced, and prints every
    metric of BENCHMARK.json with its unit, with all verdicts correct;
  * a planted wrong expected verdict drives the failed share above 0;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(args, cwd):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, lines, proc.stderr.decode()


def expect_metrics(result, wanted, label, problems):
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    target = run.target_dir(root)
    state = os.path.join(target, "perfbench")
    os.makedirs(state, exist_ok=True)
    run.build(root, target, os.path.join(state, "selftest.log"))

    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{name} trace={trace}"
            code, lines, err = bench(["--workload", name, "--seed", "3", "--seconds", "2",
                                      "--trace", trace, "--size", "tiny"], root)
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}: {err.strip()[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            expect_metrics(result, wanted, label, problems)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: verdicts wrong: {lines[-1]}")
            print(f"ok   {label}: {result['attempted']} jobs")

        code, lines, err = bench(["--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--size", "tiny", "--plant-wrong-verdict"], root)
        result = json.loads(lines[-1]) if code == 0 and lines else None
        record = json.loads(lines[-2])["perfbench"] if result else None
        share = record["detail"]["failed_share"]["value"] if record else 0
        if not result or result["correct"] or result["failed"] == 0 or share <= 0:
            problems.append(f"{name}: a planted wrong verdict went unnoticed: {lines[-1:]}")
        else:
            print(f"ok   {name}: planted wrong verdict -> failed_share {share:.2f}")

    barren = os.path.join(state, "selftest-barren")
    shutil.rmtree(barren, ignore_errors=True)
    os.makedirs(barren)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), barren)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(barren, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"], barren)
    shutil.rmtree(barren, ignore_errors=True)
    if code == 0 or lines:
        problems.append(f"barren directory: exit {code}, printed {lines[-1:]}")
    else:
        print(f"ok   barren directory: exit {code}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
