"""The byte-identity check: one fixed matrix of outputs, compared between
a base revision and the working tree.

The script extracts a ``git archive`` copy of a revision (HEAD unless
``--rev`` is given) into a temporary directory, with the plumbing of
``tests/mutations.py``, and collects the matrix twice, each time in a
fresh process that imports the ``src`` of one tree: once for the copy,
once for the working tree.  Per key it prints ``same``, ``differs`` with
the first differing line, or ``raised`` with the error of the side that
raised, and it exits 0 only when every key is ``same``.  Float outputs
depend on numpy and the BLAS, so two trees are compared on one machine
and no digest is pinned.

The matrix, each command run as ``su3mag.cli.main`` with its files
written to a relative ``--out`` directory:

* ``verify`` of both cases, at the defaults and at seeds 0-9 (samples
  20, rank_samples 5, t_end 1): the printed lines and the JSON;
* ``flow`` of both cases at seeds 0-9, and at ``--max-rows`` 1, 7, 2000
  and 20000: the printed lines, the CSV and the conservation JSON;
* ``brackets`` of both cases at eps 0.1, 0.2, 0.25, 0.5, 1 and 3: the
  printed table, its text and its JSON;
* ``centralizer`` of su3 torus, su3 irregular-A and su2 torus, m-only
  and full, at degrees 1-8 (the su3 full torus to 6): the printed report
  and both files;
* ``serialize()`` of the three algebras;
* the stdout of demos 01-05, each run as a script.

Run from the repository root:

    python tests/identity.py                 # the working tree against HEAD
    python tests/identity.py --rev HEAD~1    # against another revision

Like ``tests/mutations.py``, pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = ("regular", "irregular")
SELECTIONS = (("su3", "torus"), ("su3", "irregular-A"), ("su2", "torus"))


def commands():
    """(key, argv) of each su3mag command of the matrix."""
    small = ["--samples", "20", "--rank-samples", "5", "--t-end", "1"]
    out = []
    for case in CASES:
        out.append((f"verify {case} defaults", ["verify", "--case", case]))
        out += [(f"verify {case} seed {s}",
                 ["verify", "--case", case, "--seed", str(s), *small])
                for s in range(10)]
        out += [(f"flow {case} seed {s}",
                 ["flow", "--case", case, "--seed", str(s)])
                for s in range(10)]
        out += [(f"flow {case} max-rows {n}",
                 ["flow", "--case", case, "--max-rows", str(n)])
                for n in (1, 7, 2000, 20000)]
        out += [(f"brackets {case} eps {eps}",
                 ["brackets", "--case", case, "--eps", eps])
                for eps in ("0.1", "0.2", "0.25", "0.5", "1", "3")]
    for algebra, sub in SELECTIONS:
        for m_only in (True, False):
            top = 6 if (algebra, sub, m_only) == ("su3", "torus", False) \
                else 8
            out += [(f"centralizer {algebra} {sub} "
                     f"{'m' if m_only else 'full'} {d}",
                     ["centralizer", "--algebra", algebra, "--sub", sub,
                      "--max-degree", str(d)] + (["--m-only"] * m_only))
                    for d in range(1, top + 1)]
    return out


def collect(tree, path):
    """Write the matrix of the package that is imported, {key: text} with
    {"raised": message} for a key that raised, to path as JSON; commands
    run in a fresh temporary directory, demos from tree/demos."""
    from su3mag import cli
    from su3mag.algebra import (build_su2, build_su3_chevalley,
                                build_su3_gellmann)

    outputs, path = {}, Path(path).resolve()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for key, argv in commands():
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    status = cli.main([*argv, "--out", "out"])
            except Exception as exc:  # reported per key
                outputs[key] = {"raised": f"{type(exc).__name__}: "
                                        f"{exc}".splitlines()[0]}
                continue
            outputs[key] = stdout.getvalue() + f"exit {status}\n"
            for file in sorted(Path("out").iterdir()):
                outputs[f"{key}: {file.name}"] = file.read_text(
                    encoding="utf-8")
                file.unlink()
        for name, build in (("gellmann", build_su3_gellmann),
                            ("chevalley", build_su3_chevalley),
                            ("su2", build_su2)):
            outputs[f"serialize {name}"] = build().serialize()
        env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
        for demo in sorted(Path(tree).resolve().glob("demos/0[1-5]_*.py")):
            proc = subprocess.run([sys.executable, str(demo)], env=env,
                                  capture_output=True, text=True)
            outputs[f"demo {demo.stem}"] = (
                proc.stdout if proc.returncode == 0 else
                {"raised": f"exit {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:]}"})
    path.write_text(json.dumps(outputs), encoding="utf-8")


def run_collect(tree, path):
    """Collect the matrix of tree in a fresh process; returns its map."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "--collect", path,
                           "--tree", str(tree)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"error: collecting the matrix of {tree} failed: "
              f"{proc.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(Path(path).read_text(encoding="utf-8"))


def verdict(base, work):
    """same, differs with the first differing line, or raised."""
    for side, value in (("base", base), ("working tree", work)):
        if value is None:
            return f"raised (missing in the {side})"
        if isinstance(value, dict):
            return f"raised in the {side}: {value['raised']}"
    if base == work:
        return "same"
    a, b = base.splitlines(), work.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))
    first = (a[line] if line < len(a) else "<end>",
             b[line] if line < len(b) else "<end>")
    return f"differs at line {line + 1}: {first[0]!r} != {first[1]!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="base revision (default HEAD)")
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.tree, args.collect)
        return 0
    from mutations import archive

    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch, "base")
        copy.mkdir()
        archive(args.rev, copy, "the identity check")
        base = run_collect(copy, str(Path(scratch, "base.json")))
        work = run_collect(ROOT, str(Path(scratch, "work.json")))
    keys = sorted(set(base) | set(work))
    same = 0
    for key in keys:
        result = verdict(base.get(key), work.get(key))
        same += result == "same"
        print(f"{result.split()[0]:7} {key}"
              + ("" if result == "same" else f"  ({result})"), flush=True)
    print(f"{same} of {len(keys)} same")
    return 0 if same == len(keys) else 1


if __name__ == "__main__":
    raise SystemExit(main())
