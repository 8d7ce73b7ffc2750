#!/usr/bin/env python3
"""Build the shipped `ioql` binary and the benchmark, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Build output goes to stderr; the benchmark's
report line and its final JSON result line go to stdout. Builds land in
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The exit
code is the benchmark's: nonzero when any answer is wrong, any request
fails, or the sources to build are missing.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when the tree is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates", "core")):
        print(
            "run.py: no IOQL sources (crates/core) beside perfbench/; nothing to run",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ioql"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return r.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "ioql-perfbench"),
        *sys.argv[1:],
        "--ioql",
        os.path.join(release, "ioql"),
        "--cpus",
        str(os.cpu_count() or 0),
        "--commit",
        source_id(),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
