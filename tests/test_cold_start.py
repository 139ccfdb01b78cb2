"""Start-up: numpy and mpmath load on first use, not with qcstar, and
the package's records load neither dataclasses nor inspect.

pytest and some test modules import numpy themselves, which would hide
the lazy path, so every check here runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qcstar.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded(*names: str) -> str:
    """An expression for the loaded submodules of the named packages."""
    prefixes = tuple(f"{name}." for name in names)
    return f"sorted(m for m in sys.modules if m.startswith({prefixes!r}))"


def fresh(*args: str) -> str:
    """Standard output of a new interpreter run with args, qcstar
    imported from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout


def test_graph_ktheory_and_rewriting_load_neither_numpy_nor_mpmath():
    out = fresh("-c", f"""
import json, sys
import qcstar
from qcstar.cli import main
qcstar.k_groups(qcstar.builtin_graph("G3"))
qcstar.hereditary_saturated_sets(qcstar.builtin_graph("G1"))
p = qcstar.presentation("rp2")
x = p.normal_form(p.parse("(P + R + T*)^3"))
qcstar.builtin_morphism("rp2-inclusion").apply(x)
main(["ktheory", "--builtin", "G2"])
main(["graph", "ideals", "--builtin", "G3"])
main(["algebra", "nf", "--algebra", "rp2", "--expr", "T*T"])
print(json.dumps({loaded("numpy", "mpmath")}))
""")
    assert json.loads(out.splitlines()[-1]) == []


def test_rep_residuals_in_a_fresh_interpreter_match_in_process(capsys):
    argv = ["rep", "residuals", "--rep", "rho_rp2", "--dim", "64",
            "--format", "json"]
    assert main(argv) == 0
    assert fresh("-m", "qcstar", *argv) == capsys.readouterr().out


def test_element_loads_mpmath_and_returns_its_numbers():
    out = fresh("-c", f"""
import json, sys
import qcstar
rep = qcstar.build_rep("rho_rp2", dim=16)
form = rep.shift_form(30)
x = rep.presentation.parse("T*T + q^-3 R")
op = form.operator(x)
before = {loaded("mpmath")}
weights = form.element(x)
import mpmath
with mpmath.workdps(30):
    equal = all(v == mpmath.mpf((n, -form.bits))
                for d, w in weights.items() for v, n in zip(w, op[d]))
print(json.dumps({{
    "before": before,
    "mpf": all(isinstance(v, mpmath.mpf) for w in weights.values() for v in w),
    "equal": equal, "shifts": sorted(weights)}}))
""")
    got = json.loads(out.splitlines()[-1])
    assert got == {"before": [], "mpf": True, "equal": True, "shifts": [-2, 0]}


def test_import_loads_neither_dataclasses_nor_inspect():
    out = fresh("-c", """
import json, sys
import qcstar
print(json.dumps([m for m in ("dataclasses", "inspect") if m in sys.modules]))
""")
    assert json.loads(out.splitlines()[-1]) == []
