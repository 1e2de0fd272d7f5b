#!/usr/bin/env python3
"""Builds the release `spo` binary and the benchmark from source, then runs
one workload (see README.md):

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

Run it from the repository root. Build output goes to stderr, so the last
line of stdout is the result. Binaries land in $CARGO_TARGET_DIR
(default `.bench_build`), result records in `.bench_results/`.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("cargo is not installed")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    h = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for p in paths:
            if p.is_file() and "target" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree:" + h.hexdigest()


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "spo.rs").is_file():
        fail(f"{ROOT} holds no spo sources to build (Cargo.toml, src/bin/spo.rs)")
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    bench = target / "release" / "spo-perfbench"
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        cargo_build(BENCH / "Cargo.toml")
        os.execv(bench, [str(bench), *args])
    cargo_build(ROOT / "Cargo.toml", "--bin", "spo")
    cargo_build(BENCH / "Cargo.toml")
    spo = target / "release" / "spo"
    os.chdir(ROOT)
    os.execv(
        bench,
        [str(bench), *args, "--spo", str(spo), "--commit", source_id()],
    )


if __name__ == "__main__":
    main()
