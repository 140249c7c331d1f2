"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's own ``src/`` directory, never from an installed copy, and the
run fails (exit 2) when that directory is missing. With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run. The line before it records the
environment. Scratch files live in ``.perfbench/`` at the checkout root
and are removed at exit; the result and the traced run's spans are kept
there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# BLAS threads are pinned so every side of a comparison uses the same.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import antfis from this checkout's src/, or exit 2."""
    package = ROOT / "src" / "antfis"
    if not (package / "__init__.py").is_file():
        _fail(f"no antfis sources at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import antfis
    if Path(antfis.__file__).resolve().parent != package.resolve():
        _fail(f"antfis imported from {antfis.__file__}, not from {package}")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    _import_program()
    from perfbench import envinfo, workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir, envinfo.nproc())
        run.execute()
        result = run.result()
        diagnostics = run.diagnostics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = envinfo.environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, **result,
                    "diagnostics": diagnostics}, indent=1) + "\n",
        encoding="utf-8")
    if run.tracer is not None:
        run.tracer.write(OUT / f"spans-{stem}.jsonl")
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
