"""Record the reference outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``:

* ``exact``: the SHA-256 digest of every exact output of the ``exact``
  workload, for every eps a pass can draw (byte-identical output is the
  oracle for ``serialize()``, bracket tables and centralizer reports);
* ``certify``: per case of the workload, the observed value of every
  exact-tolerance certificate check (numeric checks map to null: they need
  only stay under their own tolerance), checked to be the same for several
  seeds;
* ``flow``: per case, the names of the operations one flow yields.
"""

from __future__ import annotations

import json
import sys

import workloads


def record_exact():
    digests = {}
    for eps in workloads.EXACT_EPS:
        for key, make in workloads.exact_plan(0, eps):
            digest = workloads.sha256(make())
            if digests.setdefault(key, digest) != digest:
                raise SystemExit(f"exact output {key} is not deterministic")
    return dict(sorted(digests.items()))


def record_certify(seeds=(1, 2, 3)):
    from su3mag import reports
    out = {}
    for case in workloads.CERTIFY_CASES:
        seen = None
        for seed in seeds:
            config = reports.default_config(case)
            config.update(workloads.CERTIFY_CONFIG, seed=seed)
            report = reports.run_verification(config)
            if not report.passed:
                raise SystemExit(f"{case} certificate fails at seed {seed}")
            checks = {c.name: (repr(c.observed) if c.tolerance == "exact"
                               else None) for c in report.checks}
            if seen is not None and checks != seen:
                raise SystemExit(f"{case} exact checks depend on the seed")
            seen = checks
        out[case] = {"checks": seen}
    return out


def record_flow():
    from su3mag import reports
    out = {}
    for case in workloads.CASES:
        sys_ = reports.make_system(case, workloads.FLOW_EPS)
        out[case] = [f"{case}/trajectory"] + [
            f"{case}/{fn.name}" for fn in reports.monitored_functions(sys_)]
    return out


def main():
    import su3mag.angles  # noqa: F401  (the certificate's angle checks)
    reference = {"exact": record_exact(), "certify": record_certify(),
                 "flow": record_flow()}
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
