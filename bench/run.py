"""knightian's benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload price|economy|hedge --seed N --seconds S --trace 0|1

Each workload runs in its own fresh child process (``bench/child.py``) with
BLAS and OpenMP pinned to one thread; see ``bench/workloads.py`` for what the
workloads do and why.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  Everything is also written to
``.bench_out/<workload>-seed<N>-trace<T>/result.json``.

``--trace 0`` measures the end-to-end metrics: the child repeats the
workload's round of work until ``--seconds`` have passed, then five fresh
processes time ``import knightian`` for ``setup_s``.

``--trace 1`` measures the per-layer metrics: one untraced round, then one
round with every public knightian function wrapped by the span recorder
(``bench/tracer.py``).  Both rounds must write byte-identical artifacts.

``--size tiny`` shrinks every workload to seconds; the benchmark's own smoke
test (``bench/test_smoke.py``) uses it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("price", "economy", "hedge")
SIZES = ("full", "tiny")

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

SETUP_PROBES = 5
# a run must end within 180 s; children are killed past this point
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A child process failed or ran out of time; no result can be given."""


class Runner:
    def __init__(self, args, src: Path, work: Path):
        self.args = args
        self.src = src
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src), **THREAD_PINS)
        self.deadline = time.monotonic() + DEADLINE_S

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, name: str, seconds: float, trace: int) -> dict:
        """Run one workload child to completion and return its record."""
        cdir = self.work / name
        cdir.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--src", str(self.src),
            "--dir", str(cdir),
        ]
        log = cdir / "child.log"
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(
                    cmd,
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    timeout=self._remaining(),
                )
            except subprocess.TimeoutExpired as err:
                raise BenchError(f"{name} child ran out of time") from err
        if proc.returncode != 0:
            tail = log.read_text()[-4000:]
            raise BenchError(f"{name} child exited with {proc.returncode}:\n{tail}")
        return json.loads((cdir / "child.json").read_text())

    def setup_seconds(self) -> float:
        """Wall time from process start until `import knightian` returns."""
        code = "import time, knightian; print(repr(time.monotonic()))"
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=self.env, cwd=self.work
        )
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as err:
            proc.kill()
            proc.wait()
            raise BenchError("setup probe ran out of time") from err
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited with {proc.returncode}")
        return float(out) - t0


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "knightian").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _collect(children: dict) -> dict:
    """Counts and correctness over every round of the named child records.

    Every round repeats the same inputs, so every round of every child, traced
    or not, must write byte-identical artifacts.
    """
    labelled = [
        (f"{name} round {i}", r)
        for name, child in children.items()
        for i, r in enumerate(child["rounds"])
    ]
    rounds = [r for _, r in labelled]
    failures = [f for r in rounds for f in r["failures"]]
    first, reference = labelled[0][0], rounds[0]["artifacts"]
    for label, r in labelled[1:]:
        if r["artifacts"] != reference:
            failures.append(f"artifacts of {label} differ from those of {first}")
    return {
        "rounds": rounds,
        "failures": failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "max_abs_err": max(r["max_abs_err"] for r in rounds),
    }


def _round_figures(rounds) -> dict:
    """Medians over rounds of the per-round job and call-latency figures.

    Percentiles are taken within each round, then the median over rounds: a
    round is a fixed list of calls, so the figure does not depend on how many
    rounds fitted into the run.
    """
    med = statistics.median
    ms = [[1e3 * seconds for _label, seconds in r["ops"]] for r in rounds]
    return {
        "job_s": (med(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (med(r["cpu_s"] for r in rounds), "s"),
        "call_p50_ms": (med(_percentile(c, 50) for c in ms), "ms"),
        "call_p90_ms": (med(_percentile(c, 90) for c in ms), "ms"),
    }


def measure(runner: Runner) -> tuple:
    """Run the workload; return (summary, metrics as name -> (value, unit), versions)."""
    args = runner.args
    if args.trace == 0:
        plain = runner.child("plain", float(args.seconds), 0)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups = [runner.setup_seconds() for _ in range(SETUP_PROBES)]
        summary = _collect({"plain": plain})
        figures = _round_figures(summary["rounds"])
        figures["setup_s"] = (statistics.median(setups), "s")
        figures["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        summary["setup_samples_s"] = setups
        summary["figures"] = figures
        return summary, {name: figures[name] for name in END_TO_END}, plain["versions"]

    plain = runner.child("plain", 0.0, 0)
    traced = runner.child("traced", 0.0, 1)
    summary = _collect({"plain": plain, "traced": traced})
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (
        traced["rounds"][0]["wall_s"] - plain["rounds"][0]["wall_s"],
        "s",
    )
    metrics["fail_frac"] = (summary["failed"] / summary["attempted"], "ratio")
    metrics["max_abs_err"] = (summary["max_abs_err"], "abs")
    return summary, metrics, traced["versions"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be nonnegative and --seconds at least 1")

    src = ROOT / "src"
    if not (src / "knightian" / "__init__.py").is_file():
        print(f"error: no knightian package under {src}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args, src, work)
    try:
        summary, metrics, versions = measure(runner)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "thread_pins": THREAD_PINS,
        "commit": _commit(),
        "src_sha256": _source_digest(src),
    }
    result = {
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(work / "result.json", "w") as fh:
        json.dump({"env": env, "summary": summary, "result": result}, fh, indent=1)
    for failure in summary["failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
