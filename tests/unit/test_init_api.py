"""Tests for the top-level package API surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_exported(self):
        """``__all__`` is pinned exactly: the protocol, its aggregates
        and hashes, and the run harness — nothing else."""
        assert sorted(repro.__all__) == sorted([
            "AggregateFunction", "AggregateState", "AverageAggregate",
            "CountAggregate", "DoubleCountError", "FairHash",
            "GossipParams", "GridAssignment", "GridBoxHierarchy",
            "HierarchicalGossipProcess", "MaxAggregate", "MinAggregate",
            "StaticHash", "SumAggregate", "TopologicalHash",
            "build_hierarchical_gossip_group", "get_aggregate",
            "measure_completeness", "PAPER_DEFAULTS", "RunConfig",
            "RunResult", "run_once", "with_params", "aggregate_once",
            "__version__",
        ])

    @pytest.mark.parametrize("module", ["mib", "viz", "monitoring"])
    def test_deleted_subsystems_are_gone(self, module):
        # Continuous MIBs are Astrolabe's system (paper section 3), not
        # this one; viz and monitoring were reached by no figure,
        # workload, campaign or net run.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{module}")
        assert not hasattr(repro, module)


class TestImportCost:
    def test_running_a_simulation_loads_no_scipy_networkx_or_matplotlib(self):
        """They cost ~1 s and ~80 MiB to import and serve three call
        sites (``binom.pmf`` x2, ``t.ppf``) and one class, none on the
        path of a run: each is imported where it is used."""
        code = (
            "import sys, repro, repro.cli, repro.experiments.runner, "
            "repro.net.node\n"
            "repro.run_once(repro.with_params(n=32, seed=1))\n"
            "print(sorted({'scipy', 'networkx', 'matplotlib'} "
            "& set(sys.modules)))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


class TestAggregateOnce:
    def test_returns_run_result(self):
        result = repro.aggregate_once({i: 1.0 for i in range(16)}, seed=1)
        assert isinstance(result, repro.RunResult)
        assert result.true_value == 1.0

    def test_respects_aggregate_choice(self):
        votes = {0: 1.0, 1: 9.0, 2: 5.0, 3: 5.0}
        result = repro.aggregate_once(votes, aggregate="max", seed=0)
        assert result.true_value == 9.0

    def test_faulty_network_parameters(self):
        result = repro.aggregate_once(
            {i: float(i) for i in range(64)},
            ucastl=0.4, pf=0.01, fanout_m=3, rounds_factor_c=1.5, seed=2,
        )
        assert 0.0 <= result.completeness <= 1.0
        assert result.messages_dropped > 0

    def test_single_vote_group(self):
        result = repro.aggregate_once({42: 3.0}, seed=0)
        assert result.completeness == 1.0
        assert result.true_value == 3.0

    def test_record_carries_mean_coverage(self):
        # Regression: aggregate_once used to leave mean_coverage at its
        # nan default (JSON null) even at completeness 1.0.
        from repro.obs.export import run_result_record

        result = repro.aggregate_once({i: float(i) for i in range(64)})
        assert result.completeness == 1.0
        assert result.mean_coverage == 1.0
        assert run_result_record(result)["mean_coverage"] == 1.0

    def test_result_config_names_the_hash_salt_it_used(self):
        # The hierarchy is hashed with FairHash(salt=seed); the record
        # used to claim hash_salt 0.
        result = repro.aggregate_once({i: 1.0 for i in range(16)}, seed=5)
        assert result.config.hash_salt == result.config.seed == 5

    def test_installs_the_callers_votes_as_sanitizer_ground_truth(
        self, monkeypatch
    ):
        from repro import sanitize

        installed = []
        real_begin = sanitize.begin_run

        def recording_begin(votes, function):
            installed.append(dict(votes))
            real_begin(votes, function)

        monkeypatch.setattr(sanitize, "begin_run", recording_begin)
        was_active = sanitize.ACTIVE
        if not was_active:
            sanitize.enable()
        try:
            votes = {7 * i + 3: float(i) for i in range(20)}
            repro.aggregate_once(votes, seed=1)
        finally:
            if not was_active:
                sanitize.disable()
        assert installed == [votes]
