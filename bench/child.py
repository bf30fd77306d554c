"""One workload in a fresh process: rounds of work until the time is up.

Run by ``bench/run.py``; not meant to be called by hand.  The child works in
its own directory, writes each round's artifacts to ``round/`` there, and
leaves a ``child.json`` with the per-round timings, the operations, the
failed checks and the sha256 of every artifact.  With ``--trace 1`` it first
installs the span recorder and also writes ``spans.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS, Round


def _digest(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    ap.add_argument("--seconds", type=float, required=True, help="0 runs exactly one round")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True, help="directory holding the knightian package")
    ap.add_argument("--dir", required=True, help="working directory of this child")
    args = ap.parse_args(argv)

    import knightian

    src = Path(args.src).resolve()
    if Path(knightian.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported knightian from {knightian.__file__}, not from {src}")
    import numpy
    import scipy

    workdir = Path(args.dir)
    os.chdir(workdir)
    prepare, run_round = WORKLOADS[args.workload]
    state = prepare(args.seed, SIZES[args.size], Path("."))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = Path("round")
    rounds = []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        rnd = Round()
        c0 = time.process_time()
        t0 = time.perf_counter()
        run_round(state, rnd, out)
        rounds.append(
            {
                "wall_s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - c0,
                "ops": rnd.ops,
                "attempted": rnd.attempted,
                "failed": rnd.failed,
                "failures": rnd.failures,
                "max_abs_err": rnd.max_abs_err,
                "artifacts": _digest(out),
            }
        )
        if time.perf_counter() - start >= args.seconds:
            break

    record = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "rounds": rounds,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write("spans.json")
    with open("child.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
