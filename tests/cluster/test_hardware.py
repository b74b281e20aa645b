"""Tests for the hardware models and the one measured→simulated formula."""

import pytest

from repro.cluster.hardware import (
    CacheModel,
    DPMemoryModel,
    HardwareModel,
    OutOfMemoryError,
    ScanCostModel,
)


class TestCacheModel:
    def test_unit_below_threshold(self):
        m = CacheModel(threshold=1_000_000)
        assert m.factor(999_999) == 1.0
        assert m.factor(1_000_000) == 1.0

    def test_polynomial_above_threshold(self):
        m = CacheModel(threshold=1_000_000, exponent=1.2)
        assert m.factor(2_000_000) == pytest.approx(2**1.2)

    def test_monotone(self):
        m = CacheModel()
        assert m.factor(10_000_000) < m.factor(70_000_000)

    def test_fig3_shape(self):
        """Flat below 1 Mbp, rapidly worsening beyond — the paper's Fig. 3."""
        m = CacheModel()
        assert m.factor(3_000) == 1.0
        assert m.factor(500_000) == 1.0
        assert m.factor(10_000_000) > 4
        assert m.factor(99_000_000) > 15

    def test_calibrated_to_paper_longest_query(self):
        """cache(71 Mbp) ≈ 16: with 1.6 Mbp fragments (cache ≈ 1.36) this
        yields the paper's ≈23× Orion win on the 71 Mbp query."""
        m = CacheModel()
        assert 10 < m.factor(71_000_000) < 25

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheModel(threshold=0)
        with pytest.raises(ValueError):
            CacheModel().factor(0)


class TestDPMemoryModel:
    def test_required_bytes(self):
        m = DPMemoryModel(bytes_per_cell=1.0)
        assert m.required_bytes(100, 200) == 20_000

    def test_fits_boundary(self):
        m = DPMemoryModel(node_memory_bytes=1000, bytes_per_cell=1.0)
        m.check(10, 100)
        with pytest.raises(OutOfMemoryError):
            m.check(10, 101)

    def test_check_raises_with_paper_style_message(self):
        m = DPMemoryModel()
        with pytest.raises(OutOfMemoryError, match="Gb of memory for dynamic programming"):
            m.check(99_000_000, 25_000_000)

    def test_paper_failure_threshold(self):
        """Defaults: the ceiling sits at ≈96 Mbp for a Drosophila-scale
        longest scaffold — 71 Mbp queries run, >96 Mbp abort (Section V-C)."""
        m = DPMemoryModel()
        longest_scaffold = 25_000_000  # Drosophila chromosome-arm scale
        m.check(71_000_000, longest_scaffold)
        m.check(90_000_000, longest_scaffold)  # the ceiling sits above 90 Mbp
        with pytest.raises(OutOfMemoryError):
            m.check(97_000_000, longest_scaffold)

    def test_validation(self):
        with pytest.raises(ValueError):
            DPMemoryModel(node_memory_bytes=0)
        with pytest.raises(ValueError):
            DPMemoryModel().required_bytes(0, 10)


class TestHardwareModel:
    def test_default_is_identity(self):
        model = HardwareModel()
        for measured in (0.0, 0.013, 2.5):
            assert model.seconds(measured, 60_000, 1_200_000) == measured

    def test_cache_factor_inflates_simulated_time_only(self):
        """A whole 60 kbp query at a 1 kbp knee (exponent 1) runs 60x
        slower in simulated time; the measurement itself is an input."""
        model = HardwareModel(cache=CacheModel(threshold=1000.0, exponent=1.0))
        assert model.seconds(0.5, 60_000, 10_000) == pytest.approx(30.0)

    def test_cache_spares_small_fragments(self):
        """Orion's key advantage on long queries: a 9 kbp fragment sits
        below a 20 kbp knee at factor 1 although its 60 kbp query does not."""
        model = HardwareModel(cache=CacheModel(threshold=20_000.0))
        assert model.seconds(0.5, 9_000, 10_000) == 0.5
        assert model.seconds(0.5, 60_000, 10_000) > 0.5

    def test_cache_applies_per_chunk(self):
        """BLAST+'s query-splitting rationale: a 20 kbp chunk stays factor 1
        under a 30 kbp knee even when the whole query is far above it."""
        model = HardwareModel(cache=CacheModel(threshold=30_000.0))
        assert model.seconds(0.5, 20_000, 10_000) == 0.5
        assert model.seconds(0.5, 60_000, 10_000) > 0.5

    def test_query_scale_converts_to_paper_units(self):
        """With query_scale, a small synthetic query models a paper-size one
        against the DP memory ceiling."""
        memory = DPMemoryModel(node_memory_bytes=64 * 1024**3, bytes_per_cell=0.25)
        HardwareModel(memory=memory).check_memory(60_000, 20_000)  # raw size: fine
        scaled = HardwareModel(memory=memory, query_scale=5000.0)
        with pytest.raises(OutOfMemoryError):
            scaled.check_memory(60_000, 20_000)

    def test_no_memory_model_never_raises(self):
        HardwareModel().check_memory(10**12, 10**12)

    def test_scan_term_uses_both_scales(self):
        model = HardwareModel(
            scan=ScanCostModel(seconds_per_mbp2=1.0), query_scale=1000.0, db_scale=100.0
        )
        # 2 kbp -> 2 Mbp query, 50 kbp -> 5 Mbp subject: 10 s scan + 0.5 s measured
        assert model.seconds(0.5, 2_000, 50_000) == pytest.approx(10.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareModel(query_scale=0)
        with pytest.raises(ValueError):
            HardwareModel(db_scale=-1.0)


def inlined_formula(measured, query_span, subject_span, cache, scan, q_scale, s_scale):
    """The duration formula the Orion, mpiBLAST and BLAST+ runners each
    used to write out inline, verbatim; its measured-seconds multiplier was
    1.0 at every call site."""
    factor = 1.0 if cache is None else cache.factor(query_span * q_scale)
    if scan is None:
        return measured * factor * 1.0
    scan_s = scan.seconds(query_span * q_scale, subject_span * s_scale)
    return factor * scan_s + measured * 1.0


#: (measured seconds, query span, subject span): sub-knee fragments, whole
#: long queries and chunks against shard-sized subjects.
GOLDEN_UNITS = [
    (0.25, 1_600, 19_200),
    (0.25, 71_000, 19_200),
    (0.0131, 125, 4_800),
    (1.75, 99_000, 1_200_000),
    (0.0, 2_000, 75_000),
]


class TestGoldenFormula:
    @pytest.mark.parametrize("with_scan", [False, True], ids=["no_scan", "scan"])
    def test_reproduces_the_runner_formula_exactly(self, with_scan):
        cache = CacheModel(threshold=1_000_000.0)
        scan = ScanCostModel() if with_scan else None
        model = HardwareModel(cache=cache, scan=scan, query_scale=1000.0, db_scale=100.0)
        for measured, q, s in GOLDEN_UNITS:
            assert model.seconds(measured, q, s) == inlined_formula(
                measured, q, s, cache, scan, 1000.0, 100.0
            )

    def test_pinned_values(self):
        cache = CacheModel(threshold=1_000_000.0)
        plain = HardwareModel(cache=cache, query_scale=1000.0, db_scale=100.0)
        scanned = HardwareModel(
            cache=cache, scan=ScanCostModel(), query_scale=1000.0, db_scale=100.0
        )
        assert plain.seconds(0.25, 1_600, 19_200) == 0.3393266717525053
        assert plain.seconds(0.25, 71_000, 19_200) == 3.9926196085074594
        assert scanned.seconds(0.25, 1_600, 19_200) == 3.085359376896454
        assert scanned.seconds(0.25, 71_000, 19_200) == 1480.6750216863243
