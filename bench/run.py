"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload paper-synth --seed 1 --seconds 50 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is the full record (inputs,
machine, quality, problems), which is also written to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run writes its
spans to ``bench/out/<workload>-seed<seed>-spans.json``. The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run at all (for example without the program's
sources).

BLAS runs on one thread, so the benchmark is one closed-loop caller on one
core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
    }


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, if it is one numpy bundles."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.restype = ctypes.c_int
                return int(function())
    return None


def _commit() -> dict:
    """HEAD and a dirty flag, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nestner" / "__init__.py").is_file():
        print(f"error: no program sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import nestner
    import workloads

    if Path(nestner.__file__).resolve().parent != (src / "nestner").resolve():
        print(f"error: imported nestner from {nestner.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    record = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), out_dir)
    record["machine"] = _machine()
    stem = f"{args.workload}-seed{args.seed}"
    spans = record.get("trace_detail", {}).pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
