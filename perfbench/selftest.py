"""Self-test of the benchmark at smoke size.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * BENCHMARK.json names the same workloads and metrics, with the same units,
    as the code that prints them;
  * every workload prints every end-to-end metric (untraced) and every
    per-layer metric (traced) by name with its unit, plus fail_ratio, and ends
    with the JSON result line;
  * a corrupted exact-sweep reference drives fail_ratio above 0;
  * in the traced run the self times of each op add up to its wall time.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402
from workloads import REFS_DIR, WORKLOADS  # noqa: E402


def bench(*args: str) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), *args, "--seed", "3", "--seconds", "1",
           "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    text, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return text, json.loads(last)


def check_result(label: str, text: str, result: dict, metrics) -> None:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{label}: {result['failed']} of {result['attempted']} ops failed\n{text}")
    assert list(result["metrics"]) == [name for name, _, _ in metrics], label
    for name, unit, _ in metrics:
        assert result["metrics"][name]["unit"] == unit, f"{label}: unit of {name}"
        pattern = rf"^{re.escape(name)} = -?[0-9][0-9.e+-]* {re.escape(unit)}(\s|$)"
        assert re.search(pattern, text, re.M), f"{label}: no line for {name} in {unit}"
    assert re.search(r"^fail_ratio = 0 ratio", text, re.M), f"{label}: fail_ratio"


def check_spec() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


def check_workloads() -> None:
    for name in WORKLOADS:
        text, result = bench("--workload", name, "--trace", "0")
        check_result(f"{name} untraced", text, result, END_TO_END)
        text, result = bench("--workload", name, "--trace", "1")
        check_result(f"{name} traced", text, result, per_layer_metrics())
        assert re.search(r"^self-time check: .*: ok$", text, re.M), f"{name}: self times\n{text}"
        assert re.search(r"^native: unavailable$|bitwise identical", text, re.M), name
        print(f"ok  {name}: every metric printed with its unit; self times add up")


def check_corrupted_reference() -> None:
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    refs = Path(tempfile.mkdtemp(dir=work))
    try:
        for ref in REFS_DIR.glob("*.csv"):
            shutil.copy(ref, refs / ref.name)
        first = refs / "table_n24.csv"
        first.write_bytes(first.read_bytes().replace(b"pi^-12", b"pi^-11", 1))
        text, result = bench("--workload", "exact-sweep", "--trace", "0", "--refs", str(refs))
    finally:
        shutil.rmtree(refs, ignore_errors=True)
    ratio = float(re.search(r"^fail_ratio = (\S+) ratio", text, re.M).group(1))
    assert not result["correct"] and result["failed"] > 0 and ratio > 0, text
    print(f"ok  corrupted reference: fail_ratio {ratio:g}, {result['failed']} failed ops")


def main() -> int:
    check_spec()
    print("ok  BENCHMARK.json matches the printed metrics")
    check_workloads()
    check_corrupted_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
