"""``pytest benchmarks/layered -q``: the benchmark keeps its contract.

``bench.py --check`` validates BENCHMARK.json against the contract and
runs every workload at reduced size in both modes (each in its own
process, as the driver does).
"""

import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def test_check_passes():
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--check"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "check ok" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits nonzero without printing a result."""
    root = HERE.parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "layered",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload",
         "sim_large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
