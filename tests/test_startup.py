"""Start-up cost of the package.

Importing ``scipy.stats`` loads scipy.linalg, optimize and spatial and more
than doubles the time a fresh ``hmm-spde`` process takes to import the
package.  The package needs none of them: a fresh interpreter that imports
it, runs the CLI and fits a slope must not have loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, sys, tempfile
import hmm_spde
from hmm_spde import cli
from hmm_spde.experiments import fit_loglog_slope
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    cli.main(["hmm", "run", "--problem", "p2", "--K", "4", "--T", "0.1", "--dt", "0.05",
              "--ddt", "5e-5", "--M", "2", "--out-dir", tmp])
    cli.main(["rates", "--experiment", "invariant_tau", "--out-dir", tmp])
fit_loglog_slope([1.0, 2.0, 4.0], [1.0, 0.5, 0.26], [0.0, 0.0, 0.0])
print(" ".join(sorted(sys.modules)))
"""

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg")


def test_package_loads_no_heavy_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "hmm_spde.experiments" in modules
    loaded = [m for m in modules if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))]
    assert loaded == []
