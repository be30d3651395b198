"""REP007 clean twin: imports inside the importer's own unit are always
allowed, whatever the allow-list says.  Expected: 0 violations.
"""

from sim.rep002_clean import stamp


def stamps(rounds, rngs, mode):
    return [stamp(round_number, rngs, mode) for round_number in rounds]
