"""The golden corpus: the data files of a fixed set of CLI runs, kept so that a
change's effect on every output reads as a diff against the previous commit.

The runs are the benchmark's gated calls at seed 1 (both sweep grids, the
three exact configs, the Monte Carlo config and the oracle check up to
N = 14) and four more: the default `simulate`, a small lossy exact-order
Monte Carlo tree, a `simulate` of that tree's config at two stages (a
mixture of 36 branches, so its `final_state` is null) and a gain table. Manifests hold timestamps and timings, so
they are left out. The bytes pin this numpy version; they do not depend on
the BLAS thread count.

Rewrite the corpus, and print what moved, from the repository root:

    python3 tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from memamp.cli import main  # noqa: E402

#: The benchmark's seed for its own calls.
SEED = 1

#: Runs outside the benchmark: (name, config or None, argv after the command).
EXTRA_RUNS = [
    ("simulate_default", {"n_atoms": 100}, ["simulate"]),
    ("mc_lossy_exact_tree", {
        "n_atoms": 20, "alpha": 0.1, "p_w": 0.02, "p_r": 0.02,
        "beta_w": 0.8, "beta_r": 0.8, "schedule": "type1", "stages": 1,
        "order": "exact", "rng_seed": SEED,
        "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 5,
                       "atomic_k_max": 8},
    }, ["mc", "--trials", "1000000"]),
    ("simulate_lossy_exact_mixture", {
        "n_atoms": 20, "alpha": 0.1, "p_w": 0.02, "p_r": 0.02,
        "beta_w": 0.8, "beta_r": 0.8, "schedule": "type1", "stages": 2,
        "order": "exact", "rng_seed": SEED,
        "truncation": {"fock_a_max": 5, "fock_b_max": 5, "fock_c_max": 5,
                       "atomic_k_max": 14},
    }, ["simulate"]),
    ("gain", None, ["gain", "--n-atoms", "97", "--n-max", "40"]),
]


def _calls(work: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv, output directory) of every run, inputs written under work."""
    calls = []
    for name in workloads.WORKLOADS:
        for call in workloads.build(name, SEED, work).calls:
            calls.append((call.out.name.removeprefix("out_"), call.argv, call.out))
    for name, config, argv in EXTRA_RUNS:
        out = work / f"out_{name}"
        if config is not None:
            path = work / f"{name}.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        calls.append((name, argv + ["--out", str(out)], out))
    return calls


def generate(dest: Path) -> None:
    """Run every call and copy its data files to dest/<run name>/."""
    with tempfile.TemporaryDirectory() as work:
        for name, argv, out in _calls(Path(work)):
            with contextlib.redirect_stdout(io.StringIO()):  # oracle-check's lines
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: memamp {' '.join(argv)} exited {code}")
            (dest / name).mkdir(parents=True, exist_ok=True)
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    shutil.copyfile(path, dest / name / path.name)


def corpus_files(root: Path) -> list[str]:
    """Paths of the corpus files under root, relative to it."""
    return sorted(
        str(p.relative_to(root)) for p in root.glob("*/*")
        if p.parent.name != "__pycache__"
    )


def _cells(path: Path) -> dict[str, str]:
    """A data file as {cell name: text}: JSON leaves by key path, CSV cells
    by row and column."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        return {
            f"row {i} {column}": cell
            for i, row in enumerate(rows[1:], 1)
            for column, cell in zip(rows[0], row)
        }
    cells = {}

    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{key}.{name}" if key else name)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{key}[{i}]")
        else:
            cells[key] = json.dumps(value)

    walk(json.loads(text), "")
    return cells


def _relative_move(old: str, new: str) -> float:
    """|new - old| / |old| of two numeric cells; inf if either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


#: Moved cells listed per file; the rest are counted.
SHOWN = 5


def moves(expected: Path, observed: Path) -> list[str]:
    """One line per corpus file that differs between two corpus roots: the
    cells that moved (the first SHOWN of them) and the largest relative move.
    A file present on one side only is named as such."""
    names = sorted(set(corpus_files(expected)) | set(corpus_files(observed)))
    lines = []
    for name in names:
        old, new = expected / name, observed / name
        if not old.exists() or not new.exists():
            lines.append(f"{name}: only in {'new' if new.exists() else 'old'} corpus")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        a, b = _cells(old), _cells(new)
        moved = [k for k in a if a[k] != b.get(k)] + [k for k in b if k not in a]
        largest = max(
            _relative_move(a[k], b[k]) if k in a and k in b else math.inf
            for k in moved
        ) if moved else 0.0
        listed = "; ".join(f"{k}: {a.get(k)} -> {b.get(k)}" for k in moved[:SHOWN])
        more = f" (+{len(moved) - SHOWN} more)" if len(moved) > SHOWN else ""
        lines.append(
            f"{name}: {len(moved)} cells moved, largest relative move "
            f"{largest:.3g}: {listed}{more}"
            if moved else f"{name}: bytes differ with equal cells"
        )
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as fresh:
        generate(Path(fresh))
        print("\n".join(moves(HERE, Path(fresh))) or "corpus unchanged")
        for run in HERE.iterdir():
            if run.is_dir() and run.name != "__pycache__":
                shutil.rmtree(run)
        shutil.copytree(fresh, HERE, dirs_exist_ok=True)
