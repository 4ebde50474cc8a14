#!/usr/bin/env python3
"""Build the benchmark program (vxbench) and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus vxbench) in
Release into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs vxbench. Build output goes to stderr; the last line of stdout is
the JSON result. Exits non-zero without a result when the build or the run
fails. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configure once, then bring vxbench up to date; return its path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "vxbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out / "vxbench"


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def main(argv):
    exe = build()
    cmd = [str(exe)] + argv + ["--commit", commit_id(),
                               "--work-dir", str(build_dir())]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
