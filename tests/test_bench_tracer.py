"""The benchmark's span recorder still sees the program it wraps.

`bench/tracer.py` patches knightian from outside, by name: a public function
renamed or removed, a field type that loses `at`, or a path batch or
replication report its hooks can no longer read, would leave its per-layer
metrics silently at zero.  The recorder is installed in a fresh
interpreter, as a traced benchmark child installs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """\
import json

from tracer import Tracer

tracer = Tracer()
tracer.install()

from knightian import gexp, replication
from knightian.dsl import parse

bounds = gexp.VolBounds(0.5, 1.0, 1.0)
grid = gexp.GridSpec(-4.0, 4.0, 21, 10)
payoff = parse("min(exp(x), 1)")
field = gexp.solve_value_field(payoff, bounds, grid, gexp.UPPER)
field.at(0.5, 0.25)
hedge = replication.hedge_field(payoff, bounds, grid)
control = replication.ControlSpec.extremal(hedge)
paths = replication.simulate_paths(control, bounds, 30, 8, seed=1)
replication.replicate(payoff, hedge, paths)
print(json.dumps({
    "spans": len(tracer.spans),
    "totals": tracer.totals(),
    "counters": tracer.counters,
    "layers": tracer.layer_metrics(),
}))
"""


def test_tracer_records_a_march_and_a_field_read(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    totals = record["totals"]
    assert record["spans"] > 0
    assert totals["gexp.solve_value_field"]["calls"] == 1
    assert totals["gexp.solve_terminal_values"]["calls"] == 1
    assert totals["replication.GridFunction.at"]["calls"] == 1
    assert record["counters"]["march.node_updates"] > 0
    layers = record["layers"]
    assert layers["gexp.march.calls"][0] == 1
    assert layers["gexp.march.bytes_stored"][0] == 8 * 11 * 21
    assert layers["replication.interp.calls"][0] == 1
    for name in ("hedge_field", "simulate_paths", "replicate"):
        assert totals[f"replication.{name}"]["calls"] == 1
    assert record["counters"]["replicate.path_steps"] == 30 * 8
