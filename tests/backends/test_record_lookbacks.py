"""Record lookbacks past the start of the record fail on every backend.

A ``rec[-k]`` that reaches before the first measurement is a circuit
error, not a wrap-around: every backend raises the same
:class:`ValueError` when it compiles the circuit, for detectors,
observables and classically controlled gates alike.
"""

import numpy as np
import pytest

from repro.backends import compile_backend
from repro.circuit.circuit import Circuit

BACKENDS = ["frame", "frame-interp", "symbolic", "tableau"]

OUT_OF_RANGE = {
    "detector-past-start": "M 0\nDETECTOR rec[-2]",
    "detector-no-measurements": "H 0\nDETECTOR rec[-1]",
    "observable-past-start": "M 0\nOBSERVABLE_INCLUDE(0) rec[-2]",
    "feedback-past-start": "X 1\nM 1\nCX rec[-2] 0\nM 0",
    "feedback-no-measurements": "CZ rec[-1] 0\nM 0",
    "detector-first-repeat": "REPEAT 2 {\nDETECTOR rec[-1]\nM 0\n}",
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_range_lookback_rejected(backend, case):
    circuit = Circuit.from_text(OUT_OF_RANGE[case])
    with pytest.raises(
        ValueError, match=r"lookback rec\[-\d+\] reaches before the first"
    ):
        compile_backend(circuit, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_in_range_feedback_still_samples(backend):
    """The check rejects only what reaches past the start: the in-range
    form of the feedback circuit flips qubit 0 on every shot."""
    circuit = Circuit.from_text("X 1\nM 1\nCX rec[-1] 0\nM 0")
    records = compile_backend(circuit, backend).sample(4, 1)
    assert np.array_equal(records, np.ones((4, 2), dtype=np.uint8))
