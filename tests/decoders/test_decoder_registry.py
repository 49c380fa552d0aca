"""The decoder registry: resolution, capabilities, wiring."""

import numpy as np
import pytest

from repro.decoders import (
    CompiledMatchingDecoder,
    DecoderInfo,
    LookupDecoder,
    MatchingDecoder,
    available_decoders,
    canonical_name,
    compile_decoder,
    decoder_choices,
    get_decoder,
    register_decoder,
)
from repro.decoders.registry import SyndromeDecoder
from repro.dem import DetectorErrorModel, ErrorMechanism
from repro.gf2 import bitops
from repro.qec import surface_code_dem


def line_dem() -> DetectorErrorModel:
    dem = DetectorErrorModel(n_detectors=2, n_observables=1)
    dem.add_group([ErrorMechanism(0.1, (0,), (0,))])
    dem.add_group([ErrorMechanism(0.1, (0, 1), ())])
    dem.add_group([ErrorMechanism(0.1, (1,), ())])
    return dem


def chain_dem(n: int) -> DetectorErrorModel:
    """``n`` detectors on a path, with a boundary edge at each end."""
    dem = DetectorErrorModel(n_detectors=n, n_observables=1)
    dem.add_group([ErrorMechanism(0.1, (0,), (0,))])
    for i in range(n - 1):
        dem.add_group([ErrorMechanism(0.1, (i, i + 1), ())])
    dem.add_group([ErrorMechanism(0.1, (n - 1,), ())])
    return dem


class TestResolution:
    def test_builtins_registered(self):
        assert {"matching", "compiled-matching", "lookup"} <= set(
            available_decoders()
        )

    def test_aliases_resolve(self):
        assert canonical_name("mwpm") == "matching"
        assert canonical_name("cmwpm") == "compiled-matching"
        assert canonical_name("batch-matching") == "compiled-matching"
        assert canonical_name("table") == "lookup"

    def test_choices_include_aliases(self):
        choices = decoder_choices()
        assert "mwpm" in choices and "compiled-matching" in choices

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="compiled-matching"):
            canonical_name("union-find")

    def test_compile_by_name(self):
        dem = line_dem()
        assert isinstance(compile_decoder(dem, "matching"), MatchingDecoder)
        assert isinstance(
            compile_decoder(dem, "cmwpm"), CompiledMatchingDecoder
        )
        assert isinstance(compile_decoder(dem, "lookup"), LookupDecoder)

    def test_dem_compile_decoder_method(self):
        decoder = line_dem().compile_decoder("compiled-matching")
        assert isinstance(decoder, CompiledMatchingDecoder)
        assert isinstance(decoder, SyndromeDecoder)


class TestCapabilities:
    def test_matching_flags(self):
        info = get_decoder("matching").info
        assert info.graphlike_only and not info.batched and not info.exact

    def test_compiled_matching_flags(self):
        info = get_decoder("compiled-matching").info
        assert info.graphlike_only and info.batched and info.compile_once

    def test_lookup_flags(self):
        info = get_decoder("lookup").info
        assert info.exact and not info.graphlike_only


class TestRegistration:
    def test_alias_may_not_shadow_canonical(self):
        with pytest.raises(ValueError, match="shadows"):
            register_decoder(
                DecoderInfo(name="throwaway", description=""),
                MatchingDecoder,
                aliases=("matching",),
            )

    def test_every_registered_decoder_decodes(self):
        dem = line_dem()
        syndrome = np.array([1, 0], dtype=np.uint8)
        for name in available_decoders():
            decoder = compile_decoder(dem, name)
            single = decoder.decode(syndrome)
            assert single.shape == (dem.n_observables,)
            batch = decoder.decode_batch(syndrome[None, :])
            assert np.array_equal(batch[0], single)


class TestMalformedSyndromes:
    @pytest.mark.parametrize("name", available_decoders())
    def test_wrong_shape_raises_value_error(self, name):
        """Every decoder rejects a batch that does not match its DEM —
        width off by one, a 1-D row, a wrong packed word count —
        instead of decoding garbage or failing deep inside a solver."""
        dem = surface_code_dem(3, 2, 0.01)
        n = dem.n_detectors
        decoder = compile_decoder(dem, name)
        for bad in (
            np.zeros((4, n - 1), np.uint8),
            np.zeros((4, n + 1), np.uint8),
            np.zeros(n, np.uint8),
        ):
            with pytest.raises(
                ValueError, match=r"expected syndromes of shape \(shots, "
            ):
                decoder.decode_batch(bad)
        n_words = bitops.words_for(n)
        for bad in (
            np.zeros((4, n_words + 1), np.uint64),
            np.zeros((4, n_words - 1), np.uint64),
            np.zeros(n_words, np.uint64),
        ):
            with pytest.raises(
                ValueError,
                match=r"expected packed syndromes of shape \(shots, ",
            ):
                decoder.decode_batch_packed(bad)

    @pytest.mark.parametrize("width", [63, 64, 65])
    @pytest.mark.parametrize("name", available_decoders())
    def test_padding_bits_raise_value_error(self, name, width):
        """A packed row with a bit set at or above ``n_detectors`` is
        rejected by every decoder.  Before, ``compiled-matching`` read
        the first padding bit as the boundary node (and failed with a
        bare IndexError further up) while the pack adapter of
        ``matching`` and ``lookup`` silently dropped them."""
        decoder = compile_decoder(chain_dem(width), name)
        rows = np.zeros((3, bitops.words_for(width)), np.uint64)
        rows[1, 0] = 0b11
        # The top detector lives in the last word; it is no padding.
        rows[2, -1] = np.uint64(1) << np.uint64((width - 1) % 64)
        assert np.array_equal(
            decoder.decode_batch_packed(rows),
            bitops.pack_rows(
                decoder.decode_batch(bitops.unpack_rows(rows, width))
            ),
        )
        for bit in range(width % 64, 64 if width % 64 else 0):
            bad = rows.copy()
            bad[2, -1] |= np.uint64(1) << np.uint64(bit)
            with pytest.raises(ValueError, match="row 2 sets padding bits"):
                decoder.decode_batch_packed(bad)
