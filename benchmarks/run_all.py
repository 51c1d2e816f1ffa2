"""Regenerate committed ``BENCH_*.json`` artifacts and stamp them.

Runs each requested artifact-producing benchmark module in full
(non-smoke) mode, then stamps the ``BENCH_<name>.json`` of exactly the
modules that ran with the git commit SHA and a regeneration timestamp,
so a perf record is always traceable to the code that produced it —
and an artifact nobody regenerated keeps its old stamp.

    python benchmarks/run_all.py                         # run all, stamp all
    python benchmarks/run_all.py lifted                  # run + stamp these
    python benchmarks/run_all.py --stamp-only lifted     # only stamp these
    python benchmarks/run_all.py --stamp-only            # only stamp all

A module failing its acceptance bar stops the run (its exit code is
propagated) — stamping only happens after every requested module
passed, so a committed artifact is never stamped with a SHA whose run
regressed.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmark modules that write a BENCH_<name>.json artifact.  Keys are
#: the artifact names accepted on the command line.
ARTIFACT_MODULES = {
    "compiled_eval": "bench_compiled_eval.py",
    "grounding": "bench_grounding.py",
    "lifted": "bench_lifted.py",
    "refinement": "bench_refinement.py",
    "serve": "bench_serve.py",
}


def git_sha(root=REPO_ROOT):
    """HEAD's commit SHA, with ``-dirty`` appended when a tracked file
    differs from HEAD.  The ``BENCH_*.json`` artifacts do not count: a
    regeneration always modifies them before they are stamped."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True)
        changed = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--", ".",
             ":(exclude)BENCH_*.json"], cwd=root,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    sha = head.stdout.strip()
    if sha and changed.stdout.strip():
        return f"{sha}-dirty"
    return sha or None


def run_module(module):
    print(f"== {module} ==", flush=True)
    return subprocess.run(
        [sys.executable, "-m", "pytest", f"benchmarks/{module}",
         "--benchmark-only", "-q"],
        cwd=REPO_ROOT).returncode


def artifact_path(name, root=REPO_ROOT):
    return root / f"BENCH_{name}.json"


def stamp_artifacts(names=None, root=REPO_ROOT):
    """Stamp ``BENCH_<name>.json`` under ``root`` for each name, or
    every ``BENCH_*.json`` there when ``names`` is None.  Returns the
    stamped file names."""
    sha = git_sha()
    now = int(time.time())
    if names is None:
        paths = sorted(root.glob("BENCH_*.json"))
    else:
        paths = [artifact_path(name, root) for name in names]
    stamped = []
    for path in paths:
        payload = json.loads(path.read_text())
        payload["git_sha"] = sha
        payload["stamped_unix"] = now
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        stamped.append(path.name)
    print(f"stamped {len(stamped)} artifacts "
          f"(git_sha={sha or 'unknown'}): {', '.join(stamped)}")
    return stamped


def main(argv=None, root=REPO_ROOT):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "modules", nargs="*", metavar="NAME",
        help="artifact names to regenerate and stamp (default: all); "
             "one of: " + ", ".join(sorted(ARTIFACT_MODULES)))
    parser.add_argument(
        "--stamp-only", action="store_true",
        help="skip the benchmark runs and only stamp the named existing "
             "artifacts (all of them when no NAME is given)")
    args = parser.parse_args(argv)

    if args.stamp_only:
        missing = [
            n for n in args.modules if not artifact_path(n, root).is_file()]
        if missing:
            parser.error(f"no artifact for name(s): {', '.join(missing)}")
        stamp_artifacts(args.modules or None, root)
        return 0
    names = args.modules or sorted(ARTIFACT_MODULES)
    unknown = [n for n in names if n not in ARTIFACT_MODULES]
    if unknown:
        parser.error(f"unknown artifact name(s): {', '.join(unknown)}")
    for name in names:
        code = run_module(ARTIFACT_MODULES[name])
        if code:
            print(f"{name}: FAILED (exit {code}); not stamping",
                  file=sys.stderr)
            return code
    stamp_artifacts(names, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
