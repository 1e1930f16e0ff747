"""The package layout: every module imports on its own, importing the
CLI and ``--help`` load no numpy, ``dataclasses`` or ``logging``, the
survival commands load only the survival code and no ``numpy.random``
or ``logging``, only a CSV-input pipeline or train loads
``multiprocessing``, the README library example runs against the
modules it names, the README's config defaults are the dataclasses'
own, no code raises a builtin exception class, no text file is opened
in the locale's encoding, and only ``csvio`` makes a ``csv.writer`` or a
``csv.reader``."""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
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
    """``code`` in a fresh interpreter that imports this flowhazard, with
    ``FLOWHAZARD_LOG`` unset."""
    env = dict(os.environ)
    env.pop("FLOWHAZARD_LOG", None)
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
    # nor, with FLOWHAZARD_LOG unset, logging or the pipeline config
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
        "print('logging' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.startswith('flowhazard')))"
    )
    assert out.returncode == 0, out.stderr
    expected = ["flowhazard", "flowhazard.cli"]
    expected += [f"flowhazard.{m}" for m in loaded]
    assert out.stdout.splitlines()[-4:] == ["False", "False", "False",
                                            repr(sorted(expected))]


@pytest.mark.parametrize("code", [
    "import flowhazard.cli",
    "from flowhazard.cli import main\n"
    "try:\n    main(['--help'])\nexcept SystemExit as done:\n"
    "    assert done.code == 0",
], ids=["import", "help"])
def test_cli_import_and_help_load_no_numpy_dataclasses_or_logging(code):
    out = run_python(code + "\nimport sys\n"
                     "print([m for m in ('numpy', 'dataclasses', 'logging') "
                     "if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


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


def field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)
            if f.default is not MISSING}


def test_readme_config_defaults_are_the_field_defaults():
    from flowhazard.config import PipelineConfig, SyntheticInputs
    from flowhazard.experiment import AttackCombination, ExperimentConfig
    from flowhazard.flowdata import FlowSchema
    from flowhazard.models import (
        BayesianRidgeParams, LinearSVRParams, RandomForestParams,
    )

    experiment = ExperimentConfig(BayesianRidgeParams(),
                                  AttackCombination("a", "b")).to_json_dict()
    expected = {
        "top level": field_defaults(PipelineConfig),
        "`inputs`": field_defaults(SyntheticInputs),
        "`schema`": field_defaults(FlowSchema),
        "`experiment`": {k: v for k, v in experiment.items()
                         if not isinstance(v, dict)},
        "`cox`": experiment["cox"],
        "`selection`": experiment["selection"],
        "`regressor`, `random_forest`": field_defaults(RandomForestParams),
        "`regressor`, `bayesian_ridge`": field_defaults(BayesianRidgeParams),
        "`regressor`, `linear_svr`": field_defaults(LinearSVRParams),
    }
    text = README.read_text()
    table = text[text.index("| section | defaults |"):].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        section, defaults = (cell.strip() for cell in row.strip("|").split("|"))
        listed[section] = {
            key: json.loads(value) for key, value in re.findall(
                r'`(\w+)` (\[[^\]]*\]|"[^"]*"|[^\s,]+)', defaults)
        }
    assert listed == json.loads(json.dumps(expected))


BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def builtin_raises(root: Path) -> list[str]:
    """``path:line`` of each ``raise`` of a builtin exception class
    (``raise ValueError(...)``, ``raise TypeError``) in the modules under
    ``root``.  A bare ``raise`` and a raise of a caught or forwarded
    object are not counted."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_builtin_raises_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x, error):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    try:\n"
        "        raise KeyError\n"
        "    except KeyError as err:\n"
        "        raise error(str(err)) from err\n"
        "    except OSError:\n"
        "        raise\n"
    )
    assert builtin_raises(tmp_path) == ["m.py:3", "m.py:5"]


def test_no_builtin_exception_is_raised():
    # every failure reaches the caller as a FlowHazardError subclass
    assert builtin_raises(PACKAGE) == []


def locale_opens(root: Path) -> list[str]:
    """``path:line`` of each builtin ``open(...)`` call in the modules
    under ``root`` that neither passes ``encoding=`` nor opens in a binary
    mode (a literal mode holding ``"b"``), so reads and writes in the
    locale's encoding."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = (isinstance(mode, ast.Constant)
                      and "b" in str(mode.value))
            if "encoding" not in keywords and not binary:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_locale_opens_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, 'w')\n"
        "    open(path, mode)\n"
        "    open(path, 'rb')\n"
        "    open(path, mode='wb')\n"
        "    open(path, mode, encoding='utf-8')\n"
        "    with open(path, mode='a') as fh:\n"
        "        fh.open(path)\n"
    )
    assert locale_opens(tmp_path) == ["m.py:2", "m.py:3", "m.py:4", "m.py:8"]


def test_every_text_file_is_opened_as_utf8():
    # output and config files read the same under any locale
    assert locale_opens(PACKAGE) == []


def csv_uses(root: Path, name: str) -> list[str]:
    """``path:line`` of each use of the csv module's ``name`` (``writer``
    or ``reader``) in the modules under ``root``: ``csv.<name>`` or an
    import of ``name`` from ``csv``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        lines = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            attribute = (isinstance(node, ast.Attribute)
                         and node.attr == name
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "csv")
            imported = (isinstance(node, ast.ImportFrom)
                        and node.module == "csv"
                        and any(a.name == name for a in node.names))
            if attribute or imported:
                lines.append(node.lineno)
        found += [f"{path.relative_to(root)}:{n}" for n in sorted(lines)]
    return found


def test_csv_writers_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "import csv\n"
        "from csv import reader, writer as w\n"
        "def f(fh, out):\n"
        "    csv.writer(fh).writerow(['a'])\n"
        "    csv.reader(fh)\n"
        "    out.writer(fh)\n"
        "    make = csv.writer\n"
    )
    assert csv_uses(tmp_path, "writer") == ["m.py:2", "m.py:4", "m.py:7"]
    assert csv_uses(tmp_path, "reader") == ["m.py:2", "m.py:5"]


def test_only_csvio_writes_csv():
    # every table artifact is written by csvio.write_table, so the format
    # is decided in one place
    assert [f for f in csv_uses(PACKAGE, "writer")
            if not f.startswith("csvio.py:")] == []


def test_only_csvio_reads_csv():
    # every CSV input is cut into records by csvio._CsvChunks, so flow
    # files and survival tables split lines and fields alike
    assert [f for f in csv_uses(PACKAGE, "reader")
            if not f.startswith("csvio.py:")] == []
