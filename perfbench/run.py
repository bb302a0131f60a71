#!/usr/bin/env python3
"""End-to-end verifier benchmark (see README.md in this directory).

Builds the library and the benchmark binary from source (Release), runs one
workload and passes its report through; the last line of standard output is
the one-line JSON result.

  python3 perfbench/run.py --workload verify_k64 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--workload all` runs every workload untraced and prints one table.
`--workload serve_mutants_k16 --survey 100` classifies the unfiltered mutant
stream the serve passes draw from (README.md) instead of measuring.
Run it from the root of the source tree.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["verify_k64", "extract_k96", "serve_mutants_k16"]
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds the benchmark target; returns its path."""
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2",
                  "--target", "gfa_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            sys.exit(2)
    return os.path.join(build_dir, "gfa_perfbench")


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit or "unknown (not a git checkout)", digest.hexdigest()[:16]


def run_one(binary, env, workload, seed, seconds, trace, capture, extra=()):
    workdir = os.path.relpath(os.path.join(HERE, ".work", str(os.getpid())))
    os.makedirs(workdir, exist_ok=True)
    try:
        return subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir] + list(extra),
            env=env, timeout=None if extra else RUN_TIMEOUT_S, text=True,
            stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--survey", type=int, default=0,
                        help="with serve_mutants_k16: classify this many "
                        "unfiltered mutant draws per golden circuit instead")
    args = parser.parse_args()

    binary = build()
    commit, digest = source_identity()
    env = {k: v for k, v in os.environ.items() if not k.startswith("GFA_")}
    env.update(GFA_THREADS="1", PERFBENCH_COMMIT=commit,
               PERFBENCH_SOURCE_DIGEST=digest)

    if args.survey:
        done = run_one(binary, env, args.workload, args.seed, args.seconds,
                       0, capture=False, extra=["--survey", str(args.survey)])
        sys.exit(done.returncode)
    if args.workload != "all":
        done = run_one(binary, env, args.workload, args.seed, args.seconds,
                       args.trace, capture=False)
        sys.exit(done.returncode)

    results, status = {}, 0
    for workload in WORKLOADS:
        done = run_one(binary, env, workload, args.seed, args.seconds,
                       args.trace, capture=True)
        sys.stdout.write(done.stdout)
        status = status or done.returncode
        if done.returncode in (0, 1):
            results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print("\n%-24s" % "metric" + "".join("%20s" % w for w in results))
    for name in names:
        cells = []
        for r in results.values():
            m = r["metrics"].get(name)
            cells.append("%20s" % ("%.6g %s" % (m["value"], m["unit"]) if m else "-"))
        print("%-24s" % name + "".join(cells))
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, name): m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    sys.exit(status)


if __name__ == "__main__":
    main()
