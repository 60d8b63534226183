"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must print every metric named in BENCHMARK.json with its
unit, untraced and traced; a corrupted output digest must be detected; and
outside a zopt checkout the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_workload_prints_every_metric(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "0", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = proc.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in table), name
    if trace == "0":
        assert any(line.split()[:1] == ["failed_frac"] for line in table)


def copy_benchmark(dest: Path) -> None:
    """BENCHMARK.json and perfbench/ alone, as the benchmark ships."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_digest_is_detected(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    digests_path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text(encoding="utf-8"))
    digests["tiny"]["con_box_n40"] = digests["tiny"]["con_box_n40"][::-1]
    digests_path.write_text(json.dumps(digests), encoding="utf-8")
    proc = bench(
        "--workload", "con_box_n40", "--seed", "0", "--trace", "0", "--scale", "tiny", cwd=tmp_path
    )
    assert proc.returncode != 0
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "!= recorded" in proc.stdout


def test_fails_outside_a_checkout(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
