"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Each test drives the harness or the tracer in child processes, so the
wrappers never leak into the interpreter running the tests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ru-certify", "burnside-certify", "ru-decompose")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_alias_of_a_wrapped_callable_is_rebound():
    code = (
        "import tracer, globfun, globfun.cli\n"
        "tracer.install()\n"
        "import globfun.splitting as s, globfun.linalg as l, globfun.burncat as b\n"
        "assert s.solve_exact is l.solve_exact and hasattr(s.solve_exact, '__wrapped__')\n"
        "assert b.solve_exact is l.solve_exact\n"
        "assert globfun.decompose is s.decompose and hasattr(s.decompose, '__wrapped__')\n"
        "print(tracer.unwrapped_aliases())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        env={"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_expected_wrapper(workload):
    # run.py marks the result incorrect when a wrapper expected to fire on
    # this workload counted 0, or one expected to stay silent did not
    got = result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert got["correct"], got
    assert got["failed"] == 0


def test_traced_counts_repeat_exactly():
    def counts():
        args = ("--workload", "ru-decompose", "--seed", "5", "--seconds", "1", "--trace", "1")
        got = result(bench(*args))
        return {
            k: v["value"]
            for k, v in got["metrics"].items()
            if v["unit"] in ("count", "bytes", "bits")
        }

    assert counts() == counts()


def test_untraced_run_reports_every_end_to_end_metric():
    got = result(bench("--workload", "ru-decompose", "--seed", "1", "--seconds", "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert got["correct"] and got["failed"] == 0
    assert set(got["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in got["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "ru-certify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
