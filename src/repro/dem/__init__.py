"""Detector error models (DEMs), extracted from symbolic phases.

Phase symbolization makes DEM extraction trivial: every noise symbol's
column in the detector/observable matrices *is* its syndrome signature,
so the symbol table yields, for every fault mechanism (every
non-identity pattern of every noise site), the set of detectors it
flips, the logical observables it flips, and its probability.  No extra
circuit simulation is needed — this is the fault-analysis application
the paper's introduction motivates.

:func:`extract_dem` reads them with array operations only: one
transpose into symbol-major rows, one XOR per pattern over all sites of
a noise instruction, one ``np.unique`` over the signatures and a
vectorized merge.  The model it returns is those arrays
(:class:`DemArrays`); its mechanism objects are built on first read.  :meth:`DetectorErrorModel.merged` is the readable
reference for that merge; the extracted model equals ``merged()`` of the
raw (``merge=False``) model bit for bit, order and floats included.
"""

from repro.dem.extract import extract_dem
from repro.dem.model import DemArrays, DetectorErrorModel, ErrorMechanism

__all__ = ["DemArrays", "DetectorErrorModel", "ErrorMechanism", "extract_dem"]
