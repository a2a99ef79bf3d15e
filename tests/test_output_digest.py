"""The output digest tool ``tools/output_digest.py``, run on a fake one-line
workload in place of the benchmark's."""

import hashlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

from gammasolve import fields

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest",
                                               ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


class Fake:
    name = "fake"

    def __init__(self, seed, workdir):
        self.values = np.arange(3.0) * seed

    def task(self):
        print("a report")
        return self.values


def test_prints_one_digest_line_per_workload(monkeypatch, capsys):
    # The tool pins threads and FFT workers for the whole process; undo that.
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench")] + sys.path)
    import run

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(fields, "_fft_workers", fields.get_fft_workers())
    monkeypatch.setitem(sys.modules, "workloads", types.SimpleNamespace(WORKLOADS={"fake": Fake}))
    monkeypatch.setitem(output_digest.OUTPUTS, "fake", lambda w, out: [out, 7])
    assert output_digest.main(["--seed", "2"]) == 0
    out = capsys.readouterr()
    expected = hashlib.sha256((2.0 * np.arange(3.0)).tobytes() + np.int64(7).tobytes())
    assert out.out == f"fake {expected.hexdigest()}\n"
    assert out.err == "a report\n"
