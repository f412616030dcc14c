#!/usr/bin/env python3
"""Self-test of the benchmark: run from the repository root with

    python3 perfbench/selftest.py

It builds the benchmark, runs every workload of BENCHMARK.json at the
self-test size (`--tiny`) with `--trace 0` and `--trace 1`, and asserts that
the last output line is the result object, that the run is correct, and that
it prints exactly the metrics BENCHMARK.json declares for that mode, each
with its declared unit. It then corrupts one repetition's stats (`--corrupt`)
and asserts the run reports a failed operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, args):
    cmd = spec["command"] + args
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{' '.join(cmd)} printed nothing"
    return json.loads(lines[-1])


def check_result(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert printed == expected, (
        f"{label}: metrics differ from BENCHMARK.json\n"
        f"  missing: {sorted(set(expected) - set(printed))}\n"
        f"  extra:   {sorted(set(printed) - set(expected))}\n"
        f"  units:   {[(n, printed[n], expected[n]) for n in set(printed) & set(expected) if printed[n] != expected[n]]}"
    )
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            result = run(spec, ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                                "--trace", trace, "--tiny"])
            check_result(result, declared, label)
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
    for w in spec["workloads"]:
        label = f"{w['name']} --corrupt"
        result = run(spec, ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--tiny", "--corrupt"])
        assert result["correct"] is False and result["failed"] >= 1, f"{label}: {result}"
        print(f"ok  {label}: corrupted stats reported as {result['failed']} failed operation(s)")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
