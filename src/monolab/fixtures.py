"""Embedded reference tables for the exceptional types.

These are the published target values the engines are checked against under
``--check-paper`` / ``verify-paper``: `OBSTRUCTION_PRIMES` for G2, F4, E6 and
E7 and the two `E8_CANDIDATES`; `CENTER_ORDERS` is reference data for the
tests of the center order.  The same tables ship as a human-readable data
file (data/reference_lists.json); `assert_data_file_sync` confirms the two
copies agree, so conformance checks cannot drift with the working directory.

For E8 the two candidate obstruction-prime lists differ in a single entry
(367 vs 397); the scan adjudicates which one is real, so both are carried
here and neither is treated as ground truth.
"""

from __future__ import annotations

import json
from importlib import resources

OBSTRUCTION_PRIMES = {
    "G2": (2, 3, 5),
    "F4": (2, 3, 5, 7, 11),
    "E6": (2, 3, 5, 7, 11),
    "E7": (2, 3, 5, 7, 11, 13, 17, 19, 31, 37, 53),
}

# The E8 list is disputed between 367 and 397; keys name the disputed member.
E8_CANDIDATES = {
    397: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 61, 67, 71, 97, 103, 109, 229, 269, 397),
    367: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 61, 67, 71, 97, 103, 109, 229, 269, 367),
}

# Order of the center of the simply-connected form.
CENTER_ORDERS = {"G2": 1, "F4": 1, "E6": 3, "E7": 2, "E8": 1}


def _as_jsonable():
    return {
        "obstruction_primes": {k: list(v) for k, v in OBSTRUCTION_PRIMES.items()},
        "e8_candidates": {str(k): list(v) for k, v in E8_CANDIDATES.items()},
        "center_orders": dict(CENTER_ORDERS),
    }


def data_file_text() -> str:
    return resources.files("monolab").joinpath("data/reference_lists.json").read_text()


def assert_data_file_sync():
    """Fail loudly if the shipped data file diverges from the embedded tables."""
    on_disk = json.loads(data_file_text())
    embedded = json.loads(json.dumps(_as_jsonable()))
    if on_disk != embedded:
        raise AssertionError("data/reference_lists.json is out of sync with monolab.fixtures")
