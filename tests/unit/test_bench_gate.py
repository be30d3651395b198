"""The perf harness's regression gate (``benchmarks/perf/run_bench.py``):
a wall-clock slowdown past 20 %, or any changed digest, against the
latest comparable history record."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/perf/run_bench.py"
_SPEC = importlib.util.spec_from_file_location("run_bench", _PATH)
run_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_bench)


def _record(quick=True, **entries):
    return {"git_revision": "abc123", "quick": quick, "entries": [
        {"workload": name, "config": {"n": 8}, **fields}
        for name, fields in entries.items()
    ]}


BASELINE = _record(
    sweep={"seconds": 1.0, "checksum": "7f3c1e2d5f8c8192"},
    net={"seconds": 1.0, "frames_sha256": "3ceaa173211e9faa"},
    plain={"seconds": 1.0},
)


def test_the_same_digests_within_the_wall_clock_bound_pass():
    record = _record(
        sweep={"seconds": 1.19, "checksum": "7f3c1e2d5f8c8192"},
        net={"seconds": 0.5, "frames_sha256": "3ceaa173211e9faa"},
        plain={"seconds": 1.1, "checksum": "new series of digests"},
    )
    assert run_bench._find_regressions(record, [BASELINE]) == []


@pytest.mark.parametrize("name,digest", [("sweep", "checksum"),
                                          ("net", "frames_sha256")])
def test_a_changed_or_missing_digest_is_flagged_however_fast(name, digest):
    for value in ("0000000000000000", None):
        fields = {"seconds": 0.1}
        if value:
            fields[digest] = value
        flags = run_bench._find_regressions(
            _record(**{name: fields}), [BASELINE])
        assert len(flags) == 1
        assert flags[0].startswith(f"{name}: {digest} {value} vs ")
        assert flags[0].endswith("at abc123")


def test_only_the_same_series_of_the_same_kind_of_run_is_compared():
    changed = {"seconds": 9.0, "checksum": "0000000000000000"}
    moved = _record(sweep=changed)
    moved["entries"][0]["config"] = {"n": 16}  # a new series
    assert run_bench._find_regressions(moved, [BASELINE]) == []
    full = _record(quick=False, sweep=changed)
    assert run_bench._find_regressions(full, [BASELINE]) == []
    assert len(run_bench._find_regressions(
        _record(sweep=changed), [BASELINE])) == 2  # digest and seconds


def test_help_renders():
    with pytest.raises(SystemExit) as stop:
        run_bench.main(["--help"])
    assert stop.value.code == 0
