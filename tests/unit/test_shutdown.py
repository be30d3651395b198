"""Signal-aware graceful shutdown (repro.shutdown).

The regression this pins: pool cleanup was registered with atexit
only, and CPython never runs atexit hooks when a default signal
handler kills the process — so a SIGTERM'd CLI leaked workers.  The
shutdown registry runs the callbacks and exits 143 instead; the
subprocess test proves it end to end.
"""

import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro.shutdown as shutdown_module

REPO = Path(__file__).resolve().parents[2]


def _fresh_shutdown(monkeypatch):
    """Reset the module-level once-only state for an in-process test."""
    monkeypatch.setattr(shutdown_module, "_callbacks", [])
    monkeypatch.setattr(shutdown_module, "_ran", False)
    return shutdown_module


class TestCallbackRegistry:
    def test_callbacks_run_once_in_reverse_order(self, monkeypatch):
        shutdown = _fresh_shutdown(monkeypatch)
        order = []
        shutdown.on_shutdown(lambda: order.append("first"))
        shutdown.on_shutdown(lambda: order.append("second"))
        shutdown.run_callbacks()
        shutdown.run_callbacks()
        assert order == ["second", "first"]

    def test_a_failing_callback_does_not_block_the_rest(self, monkeypatch):
        shutdown = _fresh_shutdown(monkeypatch)
        ran = []

        def boom():
            raise RuntimeError("cleanup failed")

        shutdown.on_shutdown(lambda: ran.append("survivor"))
        shutdown.on_shutdown(boom)
        shutdown.run_callbacks()
        assert ran == ["survivor"]


class TestSignalExit:
    def test_sigterm_runs_cleanup_and_exits_143(self, tmp_path):
        marker = tmp_path / "cleaned"
        script = textwrap.dedent(f"""
            import sys, time
            from repro import shutdown

            shutdown.install()
            shutdown.on_shutdown(
                lambda: open({str(marker)!r}, "w").write("done")
            )
            print("ready", flush=True)
            time.sleep(30)
        """)
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        try:
            assert child.stdout.readline().strip() == b"ready"
            child.send_signal(signal.SIGTERM)
            returncode = child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == 143
        deadline = time.monotonic() + 5
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert marker.read_text() == "done"

    def test_cli_installs_the_handler(self, tmp_path):
        """A SIGTERM'd CLI verb exits 143, not the default -15."""
        script = textwrap.dedent("""
            import sys
            sys.argv = ["repro", "chaos", "--campaign", "paper-iid",
                        "--n", "256", "--runs", "2000"]
            from repro.cli import main
            print("ready", flush=True)
            sys.exit(main())
        """)
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        try:
            assert child.stdout.readline().strip() == b"ready"
            time.sleep(0.3)
            child.send_signal(signal.SIGTERM)
            returncode = child.wait(timeout=15)
        finally:
            if child.poll() is None:
                child.kill()
        assert returncode == 143
