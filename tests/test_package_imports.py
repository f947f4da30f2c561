"""What ``import repro.*`` loads: what a bed runs, not every re-export.

The benchmark's imports pay for compiling every module they load (with
no bytecode cache that is most of ``harness.import_s``), so the package
``__init__``s import the offline tools — figure drivers, the schedule
explorer, mutations, trace exporters — only when one of their names is
first read.  Each check runs in a fresh interpreter: this process has
long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

PACKAGES = ("repro", "repro.harness", "repro.check", "repro.obs",
            "repro.workloads", "repro.baselines")


def _run(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_a_bed_imports_no_offline_tool():
    """The benchmark's imports of ``repro`` leave the offline tools
    unloaded (before they were lazy, all four below were loaded)."""
    loaded = _run(
        "import json, sys\n"
        "from repro.harness import fusee_bed, run_closed_loop\n"
        "from repro.check.history import kv_ops_from_spans\n"
        "from repro.obs import Tracer, Monitor, Profiler\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))\n")
    for module in ("repro.harness.experiments", "repro.check.explore",
                   "repro.check.mutations", "repro.obs.export"):
        assert module not in loaded, module


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_still_resolves(package):
    """Every name in ``__all__`` resolves, by attribute and by
    ``import *``, and ``dir()`` lists it, lazy or not."""
    result = _run(
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "missing = [n for n in package.__all__ if getattr(package, n, "
        "None) is None]\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "print(json.dumps({'missing': missing,\n"
        "    'star': sorted(set(package.__all__) - set(star)),\n"
        "    'dir': sorted(set(package.__all__) - set(dir(package)))}))\n")
    assert result == {"missing": [], "star": [], "dir": []}


def test_an_unknown_name_is_an_attribute_error():
    import repro.harness

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.harness.no_such_name
