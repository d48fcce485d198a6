"""sha256 of the best_bound reports over a fixed corpus, to check that a change
leaves every report bit for bit as it was.

The corpus: random_state(1000 + k) for k < 200, and 20 draws of every class
I-IX (classes.representative) from default_rng(9), each parameter a modulus
in [0.2, 2] times a phase in [0, 2 pi) (class I real, as its vanishing
three-way correlation needs), every state on all three supported triples:
(200 + 9 x 20) x 3 = 1,140 reports. Each report is serialized as
json.dumps(report_to_json(report)); the digest is taken over their
concatenation, in corpus order.

Run from the repository root, against this checkout's src/:

    python tools/report_digest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tanglebound.bounds import best_bound, report_to_json  # noqa: E402
from tanglebound.classes import (  # noqa: E402
    CLASS_IDS,
    CLASS_PARAMS,
    SUPPORTED_TRIPLES,
    representative,
    spec_from_values,
)
from tanglebound.qstate import random_state  # noqa: E402

RANDOM_STATES = 200
DRAWS_PER_CLASS = 20


def corpus():
    """The corpus states, in order."""
    states = [random_state(1000 + k) for k in range(RANDOM_STATES)]
    rng = np.random.default_rng(9)
    for class_id in CLASS_IDS:
        n = len(CLASS_PARAMS[class_id])
        for _ in range(DRAWS_PER_CLASS):
            moduli = rng.uniform(0.2, 2.0, n)
            phases = np.zeros(n) if class_id == "I" else rng.uniform(0.0, 2.0 * np.pi, n)
            values = [complex(m * np.exp(1j * p)) for m, p in zip(moduli, phases)]
            states.append(representative(spec_from_values(class_id, *values)))
    return states


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for state in corpus():
        for triple in SUPPORTED_TRIPLES:
            digest.update(json.dumps(report_to_json(best_bound(state, triple))).encode())
            count += 1
    print(f"{count} reports sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
