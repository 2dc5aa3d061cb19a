"""A process imports only what it uses.

Every CLI command runs in a fresh interpreter, so each module-level import
adds its import time to all of them.  scipy is imported only where a tree, a
hull or pdist is built; the package itself loads no submodule, and a command
loads only the phasekit modules it runs.  These checks run in subprocesses:
in the test process earlier tests have already imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import phasekit as pk

SRC = str(Path(pk.__file__).resolve().parents[1])

# Runs in a fresh interpreter from a scratch directory; prints, for each
# stage, whether scipy had been imported by its end.
_SCIPY_FREE = """
import json, sys
stages = {}
import phasekit
stages["import phasekit"] = "scipy" in sys.modules
from phasekit import cli
stages["import phasekit.cli"] = "scipy" in sys.modules
cli.build_parser()
stages["build_parser"] = "scipy" in sys.modules
with open("a.csv", "w") as f:
    f.write("0,1\\n2,1\\n2,3\\n0,3\\n")
with open("b.csv", "w") as f:
    f.write("10,1\\n14,1\\n14,5\\n10,5\\n")
commands = [
    ["simulate", "--system", "henon", "--steps", "1500", "--out", "h.csv"],
    ["mi", "--input", "h.csv", "--tau-max", "20"],
    ["embed", "--input", "h.csv", "--m", "2", "--tau", "1", "--out", "emb.csv"],
    ["identify", "--input", "h.csv", "--m", "3", "--tau", "1", "--n", "2",
     "--basis", "t"],
    ["symmetry", "--input", "a.csv", "--input-b", "b.csv"],
    ["dimension", "--input", "h.csv", "--m", "2", "--tau", "1", "--q", "0",
     "--fit-lo", "0.02", "--fit-hi", "0.5"],
]
for argv in commands:
    rc = cli.main(argv)
    stages[argv[0]] = "scipy" in sys.modules if rc == 0 else f"exit {rc}"
print(json.dumps(stages))
"""


def _python(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_tree_free_commands_leave_scipy_unimported(tmp_path):
    done = _python(tmp_path, "-c", _SCIPY_FREE)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages == {
        "import phasekit": False, "import phasekit.cli": False,
        "build_parser": False, "simulate": False, "mi": False, "embed": False,
        "identify": False, "symmetry": False, "dimension": False}


def test_tree_commands_import_scipy_where_they_use_it(tmp_path):
    # each in its own interpreter, so nothing imported scipy beforehand
    series = ["--input", "h.csv", "--m", "2", "--tau", "1"]
    for argv in (["simulate", "--system", "henon", "--steps", "1500",
                  "--out", "h.csv"],
                 ["dimension", *series, "--q", "2"],
                 ["predict", *series, "--n-neighbors", "4"]):
        done = _python(tmp_path, "-m", "phasekit.cli", *argv)
        assert done.returncode == 0, (argv[0], done.stderr)
        assert json.loads(done.stdout)["command"] == argv[0]


# Prints, for each stage, the phasekit modules loaded by its end and the
# systems whose Jacobian check has run.
_MODULES = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "phasekit")
stages = {}
import phasekit
stages["import phasekit"] = [loaded(), []]
from phasekit import cli, systems
checks = []
check = systems.check_jacobian
def counting(system, *args, **kwargs):
    checks.append(system.name)
    return check(system, *args, **kwargs)
systems.check_jacobian = counting
cli.build_parser()
stages["build_parser"] = [loaded(), list(checks)]
with open("a.csv", "w") as f:
    f.write("0,1\\n2,1\\n2,3\\n0,3\\n")
for argv in (["simulate", "--system", "henon", "--steps", "1500", "--out", "h.csv"],
             ["mi", "--input", "h.csv", "--tau-max", "20"],
             ["symmetry", "--input", "a.csv", "--input-b", "a.csv"]):
    rc = cli.main(argv)
    stages[argv[0]] = [loaded(), list(checks)] if rc == 0 else f"exit {rc}"
print(json.dumps(stages))
"""

_PARSER_MODULES = ["phasekit", "phasekit.cli", "phasekit.errors",
                   "phasekit.series", "phasekit.systems"]


def test_each_stage_loads_only_the_modules_it_runs(tmp_path):
    done = _python(tmp_path, "-c", _MODULES)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages == {
        "import phasekit": [["phasekit"], []],
        # the parser lists the systems without building or checking them
        "build_parser": [_PARSER_MODULES, []],
        "simulate": [_PARSER_MODULES, ["henon"]],
        "mi": [sorted(_PARSER_MODULES + ["phasekit.embedding"]), ["henon"]],
        "symmetry": [sorted(_PARSER_MODULES + ["phasekit.contours",
                                               "phasekit.embedding"]),
                     ["henon"]]}


_PACKAGE = """
import importlib, json
import phasekit
report = {"submodule": phasekit.lyapunov.__name__}  # not imported before
try:
    phasekit.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
namespace = {}
exec("from phasekit import *", namespace)
report["unbound"] = [n for n in phasekit.__all__ if n not in namespace]
report["foreign"] = [n for n in phasekit.__all__ if namespace[n] is not getattr(
    importlib.import_module(namespace[n].__module__), n)]
report["undirected"] = [n for n in phasekit.__all__ if n not in dir(phasekit)]
print(json.dumps(report))
"""


def test_package_resolves_its_names_on_access(tmp_path):
    # in a fresh interpreter, where each name resolves through the package's
    # lazy lookup rather than from an already loaded submodule
    done = _python(tmp_path, "-c", _PACKAGE)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "submodule": "phasekit.lyapunov",
        "unknown": "module 'phasekit' has no attribute 'no_such_name'",
        "unbound": [], "foreign": [], "undirected": []}


_KERNELS = """
import json
from phasekit import cli, lyapunov, systems
stages = {}
cli.build_parser()
stages["build_parser"] = sorted(systems._RK4_KERNELS)
for argv in (["simulate", "--system", "henon", "--steps", "300", "--out", "h.csv"],
             ["simulate", "--system", "lorenz", "--steps", "300", "--out", "l.csv"]):
    rc = cli.main(argv)
    stages[argv[2]] = sorted(systems._RK4_KERNELS) if rc == 0 else f"exit {rc}"
stages["frame kernels"] = sorted({*lyapunov._FRAME_PRODUCTS, *lyapunov._QR_STEPS})
print(json.dumps(stages))
"""


def test_float_kernels_are_built_on_the_first_flow_step(tmp_path):
    # neither importing nor building the parser compiles a kernel; a map
    # steps without one, and a flow builds the one for its width
    done = _python(tmp_path, "-c", _KERNELS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "build_parser": [], "henon": [], "lorenz": [3], "frame kernels": []}
