"""The ``repro serve`` verb over real localhost UDP sockets.

Skipped wholesale when the environment cannot bind a UDP socket
(sandboxed CI runners); the loopback golden suite covers the protocol
logic either way — these tests pin the asyncio endpoint wiring, the
CLI surface, and the signal contract (SIGTERM = clean exit 0).
"""

import json
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


def _udp_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _udp_available(), reason="cannot bind localhost UDP sockets"
)


def _free_port_base(span: int = 16) -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    base = probe.getsockname()[1]
    probe.close()
    # The span above the probed port is very likely free too; serve
    # retries are out of scope, collisions just fail loudly.
    return base if base + span < 65535 else base - span


class TestGroupMode:
    def test_eight_nodes_converge_and_exit_zero(self, capsys):
        code = main([
            "serve", "--members", "8", "--port", str(_free_port_base()),
            "--tick", "0.01", "--deadline", "30",
            "--rounds-factor-c", "2.0", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == "repro-run/1"
        assert record["n"] == 8
        assert record["completeness"] == 1.0

    def test_deadline_exceeded_exits_one(self, capsys):
        code = main([
            "serve", "--members", "8", "--port", str(_free_port_base()),
            "--tick", "0.2", "--deadline", "0.5",
        ])
        capsys.readouterr()
        assert code == 1


class TestSignals:
    def test_sigterm_is_a_clean_exit(self):
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--members", "4", "--port", str(_free_port_base()),
                "--tick", "0.2", "--deadline", "0",
                "--rounds-factor-c", "50",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
        try:
            time.sleep(1.5)
            child.send_signal(signal.SIGTERM)
            returncode = child.wait(timeout=15)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == 0
        assert b"stopped by signal" in child.stderr.read()


def _free_tcp_base(span: int = 8) -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    base = probe.getsockname()[1]
    probe.close()
    return base if base + span < 65535 else base - span


class TestMetricsEndpoint:
    """--metrics-port + --linger: the group stays scrapeable after
    convergence, then SIGTERM ends the linger cleanly with the JSON
    report (net/liveness stats included) still printed."""

    MEMBERS = 4

    def test_group_exposes_both_formats_and_reports_net_stats(self):
        import json as json_module
        import urllib.request

        metrics_base = _free_tcp_base()
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--members", str(self.MEMBERS),
                "--port", str(_free_port_base()),
                "--metrics-port", str(metrics_base),
                "--tick", "0.02", "--deadline", "60",
                "--rounds-factor-c", "2.0", "--linger", "60",
                "--json",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )

        def fetch(path, node):
            url = f"http://127.0.0.1:{metrics_base + node}{path}"
            with urllib.request.urlopen(url, timeout=2) as response:
                return response.read()

        try:
            deadline = time.monotonic() + 60
            converged = 0
            while time.monotonic() < deadline:
                try:
                    converged = sum(
                        1 for node in range(self.MEMBERS)
                        if json_module.loads(
                            fetch("/metrics.json", node)
                        )["metrics"]["repro_net_terminated"][
                            "samples"][0]["value"] == 1
                    )
                except OSError:
                    converged = 0
                if converged == self.MEMBERS:
                    break
                time.sleep(0.25)
            assert converged == self.MEMBERS, "group never converged"
            for node in range(self.MEMBERS):
                text = fetch("/metrics", node).decode("utf-8")
                assert "# TYPE repro_net_tx_total counter" in text
                snapshot = json_module.loads(fetch("/metrics.json", node))
                assert snapshot["schema"] == "repro-metrics/1"
                assert fetch("/healthz", node) == b"ok\n"
        finally:
            child.send_signal(signal.SIGTERM)
            stdout, stderr = child.communicate(timeout=30)
            if child.poll() is None:
                child.kill()
        assert child.returncode == 0, stderr
        report = json_module.loads(stdout.strip().splitlines()[-1])
        assert report["schema"] == "repro-run/1"
        assert report["completeness"] == 1.0
        assert "messages_rejected" in report
        assert report["net"]["pings_sent"] > 0
        assert report["net"]["pongs_received"] > 0

    def test_out_of_range_metrics_port(self, capsys):
        assert main([
            "serve", "--members", "4",
            "--port", str(_free_port_base()),
            "--metrics-port", "70000",
        ]) == 2
        capsys.readouterr()


class TestUsageErrors:
    def test_out_of_range_node_id(self, capsys):
        assert main([
            "serve", "--members", "4", "--node", "9",
            "--port", str(_free_port_base()),
        ]) == 2
        capsys.readouterr()

    def test_single_node_requires_seed(self, capsys):
        assert main([
            "serve", "--members", "4", "--node", "2",
            "--port", str(_free_port_base()),
        ]) == 2
        capsys.readouterr()
