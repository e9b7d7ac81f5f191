"""Record the reference outputs the sweep and exact checks compare against.

Runs the sweep grid (both schedules) and every exact config once through the
CLI and writes perfbench/reference.json. Re-record only for a change that is
meant to alter the physics, and say so where the change is described:

    python3 perfbench/record_reference.py
"""

import json
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from memamp.cli import main  # noqa: E402


def run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def record(work: Path) -> dict:
    reference = {"sweep": {}, "exact": {}}
    for schedule in workloads.SWEEP_SCHEDULES:
        config = work / f"sweep_{schedule}.json"
        config.write_text(json.dumps(
            {"base": dict(workloads.SWEEP_BASE, schedule=schedule),
             "axes": workloads.SWEEP_AXES}
        ))
        out = work / f"out_{schedule}"
        run(["sweep", "--config", str(config), "--out", str(out)])
        columns = workloads.SWEEP_QUALITY + ["gain_squared"]
        reference["sweep"][schedule] = [
            [*key, *(float(row[c]) for c in columns), row["succeeded"] == "true"]
            for key, row in workloads.sweep_rows(out).items()
        ]
    for name, data in workloads.EXACT_CONFIGS.items():
        config = work / f"exact_{name}.json"
        config.write_text(json.dumps(data))
        out = work / f"out_{name}"
        run(["simulate", "--config", str(config), "--out", str(out)])
        reference["exact"][name] = json.loads((out / "report.json").read_text())
    return reference


if __name__ == "__main__":
    work = ROOT / ".perfbench_out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1)
    # one line per list of scalars (a sweep row, a stage's amplitude pair)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    workloads.REFERENCE_PATH.write_text(text + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
