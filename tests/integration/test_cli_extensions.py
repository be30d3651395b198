"""Integration tests for the extended CLI commands."""

import pytest

from repro.cli import main


class TestExtensionFigures:
    def test_approx_n_via_cli(self, capsys):
        assert main(["approx-n", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "estimate/N" in out

    def test_list_includes_extensions(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("approx-n", "start-spread", "partial-views"):
            assert name in out
