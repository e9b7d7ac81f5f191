"""Compare saved benchmark runs, refusing runs from different environments.

Each log holds the standard output of one or more ``perfbench/run.py`` runs:
a ``perfbench {...}`` line followed by the result line. For every workload
and metric the medians over the runs of each log are printed side by side:

    python3 perfbench/compare.py base.log new.log

Results taken under a different BLAS library or thread count, CPU count,
Python, numpy or kernel backend are not comparable; the script names the
difference and exits 1 instead of printing numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

#: environment keys that must agree; commit and source hash may differ
FINGERPRINT = ("python", "numpy", "blas", "blas_threads", "nproc", "kernel_backend")


def read_log(path: str) -> tuple[dict, dict]:
    """(environment fingerprint, {(workload, trace, metric): [values]})."""
    fingerprints = set()
    values: dict[tuple, list[float]] = defaultdict(list)
    header = None
    with open(path) as handle:
        for line in handle:
            if line.startswith("perfbench "):
                header = json.loads(line[len("perfbench "):])
                env = header["env"]
                fingerprints.add(tuple((k, env.get(k)) for k in FINGERPRINT))
            elif line.startswith("{") and header is not None:
                result = json.loads(line)
                for name, metric in result["metrics"].items():
                    key = (header["workload"], header["trace"], name)
                    values[key].append(metric["value"])
                header = None
    if len(fingerprints) != 1:
        raise SystemExit(f"{path}: {len(fingerprints)} environments in one log")
    return dict(fingerprints.pop()), values


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_env, base), (new_env, new) = read_log(argv[0]), read_log(argv[1])
    differ = [k for k in FINGERPRINT if base_env[k] != new_env[k]]
    if differ:
        for key in differ:
            print(f"environment differs: {key} {base_env[key]!r} -> {new_env[key]!r}",
                  file=sys.stderr)
        return 1
    print(f"{'workload':8s} {'metric':40s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for key in sorted(set(base) & set(new)):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{key[0]:8s} {key[2]:40s} {b:12.6g} {n:12.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
