#!/usr/bin/env python3
"""Self-test of the benchmark at seconds-long problem sizes.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Builds vxbench like run.py, then checks for every workload that:
  - each metric in BENCHMARK.json is printed with its unit (end-to-end
    metrics with --trace 0, per-layer metrics with --trace 1), and that
    no operation fails;
  - the traced run writes span JSON with per-layer self times;
  - a deliberately corrupted output word is counted as a failed operation;
  - another seed changes the inputs but leaves ipc and core.cycles
    unchanged (the kernels are data-independent, and the campaign's seed
    only reorders its runs).
Exits non-zero and lists the problems when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def invoke(exe, workload, seed, trace, *extra):
    """Run vxbench at --small size; return (result, output lines)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small",
           "--work-dir", str(run.build_dir())] + list(extra)
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {out.returncode}:\n"
                 + out.stderr)
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), lines


def line(lines, prefix):
    return next((x for x in lines if x.startswith(prefix)), "")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    exe = run.build()
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        res = {}
        for trace in (0, 1):
            for seed in (1, 2):
                r, lines = invoke(exe, workload, seed, trace)
                res[trace, seed] = (r, lines)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                check(got == units[trace],
                      f"{workload} --trace {trace}: printed metrics {got} "
                      f"differ from BENCHMARK.json {units[trace]}")
                check(r["correct"] and r["failed"] == 0
                      and r["attempted"] > 0,
                      f"{workload} --trace {trace} --seed {seed}: "
                      f"{r['failed']} of {r['attempted']} operations failed")
                check(line(lines, "host ").startswith('host {"cpu_model"'),
                      f"{workload}: no host fingerprint line")
        trace_file = Path(line(res[1, 1][1], "trace ")[len("trace "):])
        if trace_file.is_file():
            t = json.loads(trace_file.read_text())
            check(t["spans"] and "self_s" in t["layers"].get("sweep", {})
                  and "trace.overhead_s" in t["metrics"],
                  f"{workload}: trace JSON lacks spans, layers or overhead")
        else:
            problems.append(f"{workload}: traced run wrote no span JSON")

        bad, _ = invoke(exe, workload, 1, 0, "--corrupt")
        check(bad["failed"] >= 1 and not bad["correct"],
              f"{workload}: a corrupted output was not counted as failed")

        check(line(res[0, 1][1], "inputs ") != line(res[0, 2][1], "inputs "),
              f"{workload}: the seed does not change the inputs")
        for trace, metric in ((0, "ipc"), (1, "core.cycles")):
            a = res[trace, 1][0]["metrics"][metric]["value"]
            b = res[trace, 2][0]["metrics"][metric]["value"]
            check(a == b, f"{workload}: {metric} differs across seeds "
                          f"({a} vs {b})")

    for p in problems:
        print("selftest: FAIL:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
