#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --open-rate 15000 \
        --workload replay_megafleet --seed 1 --seconds 20 --trace 0

The program (perfbench/src) is configured and built (Release, -O2) into
the directory named by CARGO_TARGET_DIR, or .bench_build when that is
unset; an up-to-date build is a no-op. Every argument is passed on to the
program. Its last stdout line, one JSON object, is checked against
BENCHMARK.json: every metric of the run's mode (end-to-end untraced,
per-layer traced) must be there with its declared unit, and no other. The
exit code is the program's; a failed build or a missing source tree exits
non-zero without printing a result.
"""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"no perfbench binary at {binary}")
    return binary


def source_digest():
    """sha256 over the library and benchmark sources: names the code that
    produced a result when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def complete(result, declared, traced):
    """Checks the program's metrics against BENCHMARK.json and puts them in
    its order."""
    wanted = declared["per_layer" if traced else "end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    problems = []
    for name, entry in metrics.items():
        if name not in units:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif entry["unit"] != units[name]:
            problems.append(f"metric {name} has unit {entry['unit']}, "
                            f"declared {units[name]}")
    ordered = {}
    for name in units:
        if name in metrics:
            ordered[name] = metrics[name]
        else:
            problems.append(f"metric {name} missing")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result["metrics"] = ordered
    if problems:
        result["correct"] = False
    return result


def main():
    args = sys.argv[1:]
    if not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT / 'src'}; run from the "
             "repository root")
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.exists():
        fail("BENCHMARK.json not found; run from the repository root")
    declared = json.loads(declared_path.read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    command = [str(binary), *args, "--git-sha", git_sha(),
               "--source-digest", source_digest(), "--work-dir",
               str(build_dir)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited {done.returncode} without a result line")
    for line in lines[:-1]:
        print(line)
    trace_at = args.index("--trace") if "--trace" in args[:-1] else -1
    result = complete(result, declared,
                      trace_at >= 0 and args[trace_at + 1] == "1")
    print(json.dumps(result))
    sys.exit(done.returncode if done.returncode != 0 else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
