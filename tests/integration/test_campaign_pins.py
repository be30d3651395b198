"""Every named chaos campaign, pinned byte for byte.

Two digests cover the whole campaign library at n=48, one run per cell,
seed 0: the ``repro-robustness/1`` report over all campaigns, and the
``--matrix`` export over all campaigns x the four protocols.  A change
to how a campaign compiles or applies its events that moves one crash,
one dropped message or one injection shows here.  The reports record
whether the runtime sanitizer was on, so the pins run with it off, as
the CLI does.
"""

import hashlib

import pytest

from repro.cli import main

PINS = {
    "report": (
        [],
        "4588dae7048a9c4d2e20aaa31024a7547c771d77e0fd459b06eaab9d1608b668",
    ),
    "matrix": (
        ["--matrix"],
        "771ad527c5ec4f39c302f3ed55a144155b41d1164d4eee1dde5658f623f1d374",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_every_campaign_is_byte_identical(name, tmp_path, capsys,
                                          unsanitized):
    flags, digest = PINS[name]
    path = tmp_path / f"{name}.json"
    assert main(["chaos", *flags, "--n", "48", "--runs", "1",
                 "--seed", "0", "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
