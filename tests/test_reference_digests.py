"""Every exact output of the benchmark's ``exact`` workload hashes to its
digest in perfbench/reference.json, at every eps a pass can draw.

A pass draws one eps, so a single benchmark run checks the bracket tables
at that eps only; this test checks them at all of them.
"""

import importlib
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parents[1]


def test_every_exact_reference_digest_is_reproduced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    digests = workloads.load_reference()["exact"]
    checked = set()
    failed = []
    for eps in workloads.EXACT_EPS:
        for key, make in workloads.exact_plan(0, eps):
            op = workloads.check_exact(key, make(), digests)
            checked.add(key)
            if not op.ok:
                failed.append(f"{key}: {op.detail}")
    assert failed == []
    assert checked == set(digests)
