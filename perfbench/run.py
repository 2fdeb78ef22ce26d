#!/usr/bin/env python3
"""Build the vericlick benchmark from source and run one workload.

    python3 perfbench/run.py --workload matrix|edits|fuzz --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the release `vericlick` binary and
the `perfbench` driver into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the driver. Its last stdout line is the result object; the line
before it is the run's provenance. Every process the run starts runs in
its own process group, which is killed when the run ends, however it ends.
"""

import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The driver answers within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(env):
    for manifest, extra in (("Cargo.toml", ["--bin", "vericlick"]),
                            ("perfbench/Cargo.toml", [])):
        if not (ROOT / manifest).is_file():
            sys.exit(f"run.py: {manifest} is missing: not a vericlick checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def revision():
    """The git revision when there is one, and a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "no-git"
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*.rs")) + sorted(path.rglob("Cargo.toml"))
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--vericlick", str(target / "release" / "vericlick"),
           "--work-dir", str(work), "--rev", revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def stop(signum, _frame):
        # Raised in the main thread, so the `finally` below kills the group.
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result after {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        # The driver's daemon and worker children share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Store directories a killed driver left behind (named after its pid).
        for leftover in work.glob(f"edits-{proc.pid}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
