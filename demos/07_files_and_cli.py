"""The UPLF container and the command-line front end.

Fields travel as UPLF files (a little-endian header describing grid and
block layout followed by raw complex data), and every library capability
is reachable from the `gamma-solve` CLI with JSON configs.  This script
exercises both from Python: byte-stable round trips, then a full solve
and the built-in verification suite through the CLI entry point.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from gammasolve import Block, BlockLayout, Grid, random_field, read_uplf, write_uplf
from gammasolve.cli import main

grid = Grid((8, 8), (2 * np.pi, 2 * np.pi))
lay = BlockLayout((Block("vector", 2), Block("scalar")))
f = random_field(grid, lay, seed=7)

with tempfile.TemporaryDirectory() as td:
    p1 = os.path.join(td, "field.uplf")
    p2 = os.path.join(td, "copy.uplf")
    write_uplf(p1, f)
    g = read_uplf(p1)
    write_uplf(p2, g)
    same = Path(p1).read_bytes() == Path(p2).read_bytes()
    print(f"uplf round trip: {os.path.getsize(p1)} bytes, "
          f"byte-identical after re-save: {same}")
    print(f"max value deviation: {np.max(np.abs(g.values - f.values)):.2e}")

    # a solve driven entirely through the CLI
    config = {
        "grid": {"dims": [8, 8, 8]},
        "material": {"physics": "acoustics", "omega": 1.3,
                     "params": {"kappa": 1.0, "rho": 1.0}},
        "source": {"type": "force_plane_wave", "mode": [1, 0, 0],
                   "force": [1.0, 0.0, 0.0]},
        "solver": {"tol": 1e-9, "history_csv": "history.csv"},
    }
    cfg_path = os.path.join(td, "solve.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(td, "run")
    rc = main(["solve", "--config", cfg_path, "--out", out])
    summary = json.loads(Path(out, "summary.json").read_text())
    print(f"\ncli solve: exit {rc}, converged {summary['converged']}, "
          f"residual {summary['residual']:.2e}")
    print("outputs:", sorted(os.listdir(out)))

print("\ncli verify (built-in self checks):")
rc = main(["verify"])
print(f"verify exit code: {rc}")
