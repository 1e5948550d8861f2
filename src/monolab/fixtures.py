"""Reference tables for the exceptional types, read from the shipped data file.

`OBSTRUCTION_PRIMES` for G2, F4, E6 and E7 and the two `E8_CANDIDATES` are the
published target values that ``--check-paper`` / ``verify-paper`` check the
engines against.  Their one copy is data/reference_lists.json, read at import;
`assert_data_file_sync` reads it again and compares.  The two E8 lists differ
in one entry (367 vs 397); the scan adjudicates which one is real, so both are
carried and neither is treated as ground truth.
"""

import json
from importlib import resources


def _read_tables():
    """(OBSTRUCTION_PRIMES, E8_CANDIDATES) from the data file: tuples of primes, E8's keyed by the disputed member."""
    doc = json.loads(resources.files("monolab").joinpath("data/reference_lists.json").read_text())
    return (
        {name: tuple(primes) for name, primes in doc["obstruction_primes"].items()},
        {int(disputed): tuple(primes) for disputed, primes in doc["e8_candidates"].items()},
    )


OBSTRUCTION_PRIMES, E8_CANDIDATES = _read_tables()


def assert_data_file_sync():
    """Fail loudly if the tables in memory diverge from the shipped data file."""
    if _read_tables() != (OBSTRUCTION_PRIMES, E8_CANDIDATES):
        raise AssertionError("data/reference_lists.json is out of sync with monolab.fixtures")
