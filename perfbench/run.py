#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark invocation.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload lookup_route --seed 1 --seconds 10 --trace 0

The arguments pass through to the benchmark binary (see main.go). Everything
the build and the run write stays under .bench_build/ at the root of the
checkout: the Go build cache, the binary, and a scratch directory for peer
data directories, which is removed when the run ends. The exit code is the
benchmark's; a failed build exits 1 without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")


def go_env():
    """Point every Go cache, temp and config directory into STATE."""
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[key] = os.path.join(STATE, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly", CGO_ENABLED="0")
    return env


def revision():
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    env = go_env()
    binary = os.path.join(STATE, "bin", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-trimpath", "-o", binary, "."],
            cwd=HERE, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed:\n{build.stderr}", file=sys.stderr)
        return 1
    scratch = tempfile.mkdtemp(prefix="run-", dir=env["TMPDIR"])
    try:
        proc = subprocess.run(
            [binary, *sys.argv[1:], "--scratch", scratch, "--commit", revision()],
            env=env, timeout=RUN_TIMEOUT_S,
        )
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
