"""The package layout: every module imports on its own, the survival
commands load only the survival code and no ``numpy.random``, only a
CSV-input pipeline or train loads ``multiprocessing``, and the README
library example runs against the modules it names."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowhazard

PACKAGE = Path(flowhazard.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(
    ".".join(("flowhazard",) + path.relative_to(PACKAGE).with_suffix("").parts)
    .removesuffix(".__init__")
    for path in PACKAGE.rglob("*.py")
)


def run_python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this flowhazard."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # the first import of a module in a process walks its import edges
    # from there, so a cycle shows up as an ImportError for some start
    out = run_python(f"import {module}")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


@pytest.mark.parametrize("argv, loaded", [
    (["cox"], ["csvio", "errors", "survival"]),
    (["km", "--svg"], ["csvio", "errors", "survival", "svgplot"]),
], ids=["cox", "km"])
def test_survival_commands_load_no_classifier(tmp_path, argv, loaded):
    from flowhazard.survival import SurvivalTable, write_survival_table

    table = tmp_path / "table.csv"
    write_survival_table(
        SurvivalTable(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 1, 1]),
                      np.array([[0.5], [0.1], [0.9], [0.2]])),
        str(table),
    )
    args = [argv[0], "--table", str(table), "--out", str(tmp_path), *argv[1:]]
    out = run_python(
        "import sys; from flowhazard import cli; "
        f"assert cli.main({args!r}) == 0; "
        "print('multiprocessing' in sys.modules); "
        "print('numpy.random' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.startswith('flowhazard')))"
    )
    assert out.returncode == 0, out.stderr
    expected = ["flowhazard", "flowhazard.cli"]
    expected += [f"flowhazard.{m}" for m in loaded]
    assert out.stdout.splitlines()[-3:] == ["False", "False",
                                            repr(sorted(expected))]


def test_cli_import_loads_no_multiprocessing():
    out = run_python("import sys, flowhazard.cli; "
                     "print('multiprocessing' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_synthetic_pipeline_starts_no_child(tmp_path):
    spec = {"BENIGN": {"x": {"mean": 0.0, "std": 1.0}},
            "known": {"x": {"mean": 6.0, "std": 1.0}},
            "novel": {"x": {"mean": 3.0, "std": 1.0}}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    config = {
        "inputs": {"synthetic_spec": "spec.json", "rows_per_class": 100},
        "experiment": {
            "regressor": {"kind": "random_forest", "n_trees": 3},
            "combination": {"pre_attack": "known", "post_attack": "novel"},
            "seq_len": 10, "n_sequences": 20, "n_iterations": 1,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    args = ["pipeline", "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out")]
    out = run_python(
        "import sys; from flowhazard import cli; "
        f"assert cli.main({args!r}) == 0; "
        "print('multiprocessing' in sys.modules)"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "report.json").exists()


def test_readme_library_example_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = run_python(example, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "('bytes', 'flags')"
    assert (tmp_path / "survival.csv").exists()
