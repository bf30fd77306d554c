"""Every demo script and README's library tour run to completion against the
package in src/, and importing the package leaves the command line out."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_the_command_line_out():
    # a fresh `import knightian` is what the benchmark's setup_s times
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, knightian; print(sorted({'knightian.cli', 'argparse', 'csv'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_tour_runs():
    # the tour's two python blocks run in one namespace, and every value a
    # comment quotes is what its line computes, to the decimals quoted
    tour = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, re.S)
    assert len(blocks) == 2
    namespace, quoted = {}, {}
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            number = re.match(r"\s*(\d+\.\d+)", lines[node.end_lineno - 1].partition("#")[2])
            if number:
                quoted[number.group(1)] = value
    assert sorted(quoted) == ["0.7435", "0.7616", "0.8627"]
    for text, value in quoted.items():
        assert round(value, 4) == float(text), text
    assert namespace["verdict"].implementable is False
