"""Print one SHA-256 digest per benchmark workload over the outputs its
check reads, so that two checkouts can be shown to give bitwise-equal
results.  Run from anywhere:

    python3 tools/output_digest.py [--seed N]

Each workload of ``perfbench/workloads.py`` makes its inputs from ``--seed``
(default 1) and runs its task once, with the gammasolve of the checkout this
file sits in, one BLAS thread and one FFT worker, as ``perfbench/run.py``
does.  Standard output holds one line ``<workload> <sha256>`` per workload
(what a task prints goes to standard error), over:

* ``elastic32_cli``: the bytes of the ``E.uplf`` the CLI writes;
* ``maxwell16_resonant``: E and the iteration count;
* ``love_sweep``: the responses;
* ``bloch_elastic16``: ``tensor_e``, ``tensor_j`` and each column's
  iterations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# What each workload's check reads, from the workload and its task's result.
OUTPUTS = {
    "elastic32_cli": lambda w, rc: [Path(w.out, "E.uplf").read_bytes()],
    "maxwell16_resonant": lambda w, result: [result.E.values, result.iterations],
    "love_sweep": lambda w, responses: [responses],
    "bloch_elastic16": lambda w, eff: [eff.tensor_e, eff.tensor_j,
                                       [r.iterations for r in eff.results]],
}


def digest(parts):
    """SHA-256 hex digest of byte strings and arrays (by their bytes), in
    order."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run

    # Threads are pinned before numpy is first imported, which reads them.
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.THREADS)
    run._import_gammasolve().set_fft_workers(run.THREADS)
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        for name, workload_cls in WORKLOADS.items():
            workload = workload_cls(args.seed, os.path.join(workdir, name))
            with contextlib.redirect_stdout(sys.stderr):  # the CLI's own report
                out = workload.task()
            print(name, digest(OUTPUTS[name](workload, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
