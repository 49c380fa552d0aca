"""PACK002 — the packed uint64 wire must not silently mix with uint8
rows.

PR 5's hot path keeps shots bit-packed (shot-major uint64 words,
little-endian bit order) from sampler to error count.  Packed and
unpacked arrays are both plain ``np.ndarray``\\ s, so feeding one where
the other is expected fails *silently* — popcounts of uint8 rows are
valid numbers, just wrong ones.  Crossing the ``repro.gf2.bitops``
boundary therefore requires an explicit pack/unpack call.

The check is flow-sensitive provenance over each function's CFG and
over the module's top-level statements (import-time wiring), following
packed/unpacked marks through assignments, branches, and function
returns (interprocedural summaries).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.cfg import build_cfg
from repro.analysis.core import Finding
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail
from repro.analysis.rules.flow import (
    FlowRule,
    calls_in,
    describe_expr,
    element_exprs,
)
from repro.analysis.summaries import DataflowContext, SummaryAnalysis

#: Calls whose results are packed uint64 rows.
PACKED_PRODUCERS = frozenset({
    "sample_detectors_packed", "decode_batch_packed",
    "packed_detector_samples", "pack_detector_samples",
    "pack_rows", "pack_bits", "random_packed",
    "detect_packed", "decode_packed",
})

#: Calls whose results are unpacked uint8 rows.
UNPACKED_PRODUCERS = frozenset({
    "sample_detectors", "decode_batch", "unpack_rows", "unpack_bits",
    "detect", "decode",
})

#: Functions whose array arguments must be packed (the bitops boundary
#: plus the packed decoder entry).
PACKED_CONSUMERS = frozenset({
    "decode_batch_packed", "popcount_rows", "popcount",
    "nonzero_rows_packed", "dedupe_rows_packed", "xor_rows_any",
    "nonzero_bits", "parity_words", "unpack_rows", "unpack_bits",
})

#: Functions whose array arguments must be unpacked.  The ``pack_*``
#: converters appear here on purpose: they are the *explicit* packing
#: step, so handing them an already-packed array double-packs it.
UNPACKED_CONSUMERS = frozenset({
    "decode_batch", "pack_rows", "pack_bits", "pack_detector_samples",
})


_CONVERSION_HINT = (
    "convert explicitly at the boundary "
    "(gf2.bitops.pack_rows/unpack_rows or "
    "backends.pack_detector_samples) or use the "
    "matching-domain API"
)


class PackProvenanceAnalysis(SummaryAnalysis):
    """Marks: ``packed`` / ``unpacked`` row provenance."""

    domain_name = "pack"
    domain_version = 1

    def intrinsic_call_marks(
        self, state, call: ast.Call
    ) -> frozenset[str] | None:
        tail = dotted_tail(call.func)
        if tail in PACKED_PRODUCERS:
            return frozenset({"packed"})
        if tail in UNPACKED_PRODUCERS:
            return frozenset({"unpacked"})
        return None


class PackedFlowRule(FlowRule):
    """PACK002: flow-sensitive packed/unpacked provenance checking."""

    id = "PACK002"
    severity = "error"
    title = "packed/unpacked provenance mix on a dataflow path"
    rationale = (
        "a value assigned from a packed producer on any path must not "
        "reach an unpacked-domain consumer (and vice versa); both are "
        "plain ndarrays, so the mix is silent."
    )
    version = 2
    domain = PackProvenanceAnalysis

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved,
    ) -> Iterator[Finding]:
        scopes = [(build_cfg(file.tree), "at module level")] + [
            (context.cfg(info), f"in {info.qualname}()")
            for info in file.functions.values()
        ]
        for cfg, where in scopes:
            analysis = PackProvenanceAnalysis(file, index, resolved)
            for element, state in analysis.walk(cfg):
                for call in calls_in(element_exprs(element)):
                    tail = dotted_tail(call.func)
                    if tail in PACKED_CONSUMERS:
                        expected = "packed"
                    elif tail in UNPACKED_CONSUMERS:
                        expected = "unpacked"
                    else:
                        continue
                    wrong = "unpacked" if expected == "packed" else "packed"
                    for arg in call.args:
                        marks = analysis.expr_marks(state, arg)
                        if wrong in marks and expected not in marks:
                            yield self.finding(
                                index, file, call,
                                f"{wrong} value {describe_expr(arg)} "
                                f"passed to {expected}-domain {tail}() "
                                f"{where}",
                                hint=_CONVERSION_HINT,
                            )
