"""Feature extraction tests: ectopic filtering, spectra, windows, panels."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    beat_times,
    ectopic_mask_loop,
    lomb_band_power,
    lomb_periodogram,
    modulated_tachogram,
    poincare_widths,
    sample_entropy_loops,
)
from vtapred import FeatureError, build_cohort, detect_ectopic, features
from vtapred.dataset import MIN_BEATS, PatientMeta, RRRecord
from vtapred.features import (
    BASELINE11_NAMES, FEATURE_SETS, FREQ_GRID_STEP_HZ, HF_BAND, LF_BAND, LOMB_BLOCK_VALUES, RECENT_BEATS, RECENT_NAMES,
    VLF_BAND, WINDOW_BEATS, WINDOWED_NAMES, Cohort, _grid_points, _lomb_scargle, band_power, baseline11, extract,
    feature_names, fit_standardizer, sample_entropy, standardize, windowed_diff, write_feature_matrix,
)
from vtapred.synthetic import gaussian_task


def rr_stack(rng, rows, n):
    """``rows`` random RR series of ``n`` beats: (times, intervals), each (rows, n), every row its own clock."""
    x = rng.normal(820.0, 45.0, (rows, n))
    t = rng.uniform(0.0, 3600.0, (rows, 1)) + np.cumsum(x, axis=1) / 1000.0
    return t, x


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDetectEctopic:
    def test_single_large_outlier_flagged(self):
        x = [800.0] * 5 + [400.0] + [800.0] * 4
        mask = detect_ectopic(x)
        assert mask.tolist() == [False] * 5 + [True] + [False] * 4

    def test_flagged_beat_does_not_shift_reference(self):
        # the 400 must not drag the running mean down and condemn the 800s
        x = [800.0] * 5 + [400.0, 400.0] + [800.0] * 3
        mask = detect_ectopic(x)
        assert mask.tolist() == [False] * 5 + [True, True] + [False] * 3

    def test_constant_sequence_all_clear(self):
        mask = detect_ectopic(np.full(40, 700.0))
        assert not mask.any()

    def test_small_alternation_all_clear(self):
        x = np.where(np.arange(40) % 2 == 0, 800.0, 810.0)
        assert not detect_ectopic(x).any()

    def test_too_short_message(self):
        with pytest.raises(FeatureError, match="sequence too short for ectopic filtering"):
            detect_ectopic([800.0] * 5)

    def test_mask_invariant_under_scaling(self, rng):
        for _ in range(10):
            x = rng.normal(800.0, 40.0, 80)
            spikes = rng.choice(np.arange(10, 80), size=6, replace=False)
            x[spikes] *= rng.uniform(1.4, 1.9, size=6)
            np.testing.assert_array_equal(detect_ectopic(x), detect_ectopic(3.7 * x))

    def test_mask_length_matches_input(self, rng):
        x = rng.normal(800.0, 30.0, 57)
        assert detect_ectopic(x).shape == (57,)

    def test_matches_the_numpy_scalar_loop(self, rng, monkeypatch):
        cases = []
        for _ in range(1200):
            ref_beats = int(rng.integers(1, 9))
            threshold = float(rng.uniform(0.02, 0.5))
            x = rng.normal(800.0, float(rng.uniform(5.0, 150.0)), int(rng.integers(ref_beats + 1, 300)))
            spikes = rng.random(x.size) < 0.05
            x[spikes] *= rng.uniform(0.4, 1.8, size=int(spikes.sum()))
            if rng.random() < 0.5:
                x = np.round(x)  # integer milliseconds, as most exports write them
            cases.append((np.abs(x) + 1.0, threshold, ref_beats))
        # a sustained 25% rate step, after which every beat is flagged (lock-up)
        cases.append((np.r_[np.full(100, 800.0), np.full(300, 600.0)], 0.2, 5))
        # beats exactly on the threshold, which stay accepted
        cases.append((np.r_[np.full(4, 1000.0), 1250.0, 750.0, 1000.0], 0.25, 4))
        for x, threshold, ref_beats in cases:
            monkeypatch.setattr(features, "ECTOPIC_THRESHOLD", threshold)
            monkeypatch.setattr(features, "ECTOPIC_REF_BEATS", ref_beats)
            assert np.array_equal(detect_ectopic(x), ectopic_mask_loop(x, threshold, ref_beats))

    def test_seed_total_is_summed_left_to_right(self):
        # The next beat sits on the 20% edge: the plain left-to-right sum of the
        # first window keeps it, the correctly rounded sum would flag it.
        window = [827.4, 754.0, 708.2, 703.3, 862.7]
        plain = 0.0
        for value in window:
            plain += value
        assert plain != math.fsum(window)
        x = window + [925.344] + [800.0] * 4
        mask = detect_ectopic(x)
        assert np.array_equal(mask, ectopic_mask_loop(x))
        assert not mask[5]


class TestRecentStats:
    """mean_rr, min_rr and max_rr: the last RECENT_BEATS kept beats of each record."""

    def _stats(self, records):
        X = extract(records, "recent")
        return X[:, [RECENT_NAMES.index(name) for name in ("mean_rr", "min_rr", "max_rr")]]

    def test_only_last_kept_beats_counted(self):
        x = np.linspace(700.0, 760.0, WINDOW_BEATS + 20)  # a slow ramp that flags no beat
        x[-5] = 1400.0  # ectopic, so the window reaches one beat further back
        assert detect_ectopic(x).nonzero()[0].tolist() == [x.size - 5]
        kept = np.delete(x, x.size - 5)[-RECENT_BEATS:]
        mean, lo, hi = self._stats([RRRecord("r", x, "VTA", "p")])[0]
        assert (mean, lo, hi) == (kept.mean(), kept[0], kept[-1])

    def test_constant_tail(self):
        x = np.r_[np.linspace(760.0, 800.0, WINDOW_BEATS), np.full(45, 800.0)]
        assert self._stats([RRRecord("r", x, "VTA", "p")]).tolist() == [[800.0, 800.0, 800.0]]

    def test_each_row_gets_its_own_records_stats(self, rng):
        records = [RRRecord(f"r{i}", rng.normal(800.0, 15.0, WINDOW_BEATS + 10 * i), "VTA", "p") for i in range(5)]
        stacked = self._stats(records)
        for row, record in zip(stacked, records):
            tail = record.intervals_ms[~detect_ectopic(record.intervals_ms)][-RECENT_BEATS:]
            assert_same_bits(row, np.array([tail.mean(), tail.min(), tail.max()]))
            assert_same_bits(row, self._stats([record])[0])

    def test_insufficient_beats(self):
        record = RRRecord("short", np.full(RECENT_BEATS - 1, 800.0), "VTA", "p")
        with pytest.raises(FeatureError, match="record 'short': need at least 30 beats for recent-beat statistics"):
            extract([record], "recent")


class TestBandPower:
    def test_constant_sequence_is_exactly_zero(self):
        x = np.full(30, 800.0)
        assert band_power(beat_times(x), x, (LF_BAND, HF_BAND)).tolist() == [0.0, 0.0]

    def test_low_frequency_tone_lands_in_lf(self):
        x = modulated_tachogram(0.10)
        lf, hf = band_power(beat_times(x), x, (LF_BAND, HF_BAND))
        assert lf > 10.0 * hf

    def test_high_frequency_tone_lands_in_hf(self):
        x = modulated_tachogram(0.30)
        lf, hf = band_power(beat_times(x), x, (LF_BAND, HF_BAND))
        assert hf > 10.0 * lf

    def test_dense_grid_oracle_agrees_on_tone_location(self):
        # independent periodogram on a 10x finer grid, hand-rolled trapezoid
        for freq, widest in ((0.10, (0.04, 0.15)), (0.30, (0.15, 0.40))):
            x = modulated_tachogram(freq)
            t = beat_times(x)
            y = x - x.mean()
            in_band = lomb_periodogram(t, y, np.arange(widest[0] + 0.0005, widest[1], 0.0005))
            other = (0.15, 0.40) if widest == (0.04, 0.15) else (0.04, 0.15)
            out_band = lomb_periodogram(t, y, np.arange(other[0] + 0.0005, other[1], 0.0005))
            # unit-spaced trapezoid sums; both grids share one step
            in_power = np.sum((in_band[1:] + in_band[:-1]) / 2.0)
            out_power = np.sum((out_band[1:] + out_band[:-1]) / 2.0)
            assert in_power > 10.0 * out_power

    def test_matches_direct_formula_on_shared_grid(self, rng):
        bands = ((0.04, 0.15), (0.15, 0.40), VLF_BAND)
        for _ in range(8):
            raw = rng.normal(820.0, 45.0, 66)
            kept = np.ones(raw.size, dtype=bool)
            kept[rng.choice(raw.size, 6, replace=False)] = False  # gaps where beats were removed
            t, x = beat_times(raw)[kept], raw[kept]
            for got, band in zip(band_power(t, x, bands), bands):
                assert got == pytest.approx(lomb_band_power(t, x, band), rel=1e-8)

    def test_vendored_periodogram_matches_the_direct_oracle(self, rng):
        # a block holds 65 frequencies at 1,000 beats and 3 at 20,000, so those grids cross block
        # seams; a day's offset makes every phase large
        grid = [(0.0, 80), (0.15, 50), (0.095, 1)]
        for n, offset_s in ((2, 0.0), (3, 0.0), (30, 0.0), (250, 0.0), (1000, 0.0),
                            (30, 86_400.0), (1000, 86_400.0), (20_000, 0.0)):
            x = rng.normal(820.0, 45.0, n)
            t = offset_s + beat_times(x)
            y = x - x.mean()
            for got, (lo, n_freqs) in zip(_lomb_scargle(t, y, grid), grid):
                want = lomb_periodogram(t, y, lo + FREQ_GRID_STEP_HZ * np.arange(1, n_freqs + 1))
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10 * float(np.sum(y * y)))

    def test_matches_scipy_on_the_same_timestamps(self, rng, scipy_reference):
        # the rotation is not SciPy's algorithm step for step, so the bits differ in the last places
        from scipy.integrate import trapezoid
        from scipy.signal import lombscargle

        bands = (VLF_BAND, (0.04, 0.15), (0.15, 0.40))
        for i in range(50):
            x = rng.normal(820.0, float(rng.uniform(5.0, 120.0)), int(rng.integers(3, 2000)))
            if i % 3 == 0:
                x = np.round(x)  # integer-ms recordings
            times_s = beat_times(x) + (86_400.0 if i % 5 == 0 else 0.0)
            for got, (lo, hi) in zip(band_power(times_s, x, bands), bands):
                n_freqs = int(np.floor((hi - lo) / FREQ_GRID_STEP_HZ + 1e-9))
                freqs = lo + FREQ_GRID_STEP_HZ * np.arange(1, n_freqs + 1)
                pgram = lombscargle(times_s, x - x.mean(), 2.0 * np.pi * freqs)
                assert got == pytest.approx(float(trapezoid(pgram, freqs)), rel=1e-9)

    def test_non_negative(self, rng):
        for _ in range(10):
            x = rng.normal(800.0, 60.0, 50)
            assert band_power(beat_times(x), x, [(0.04, 0.15)])[0] >= 0.0

    def test_total_band_dominates_sub_bands(self, rng):
        for _ in range(6):
            x = rng.normal(800.0, 50.0, 100)
            total, *subs = band_power(beat_times(x), x, ((0.003, 0.40), VLF_BAND, (0.04, 0.15), (0.15, 0.40)))
            for sub in subs:
                assert total >= sub * (1.0 - 1e-9)

    @pytest.mark.parametrize("n, band", [(20_000, (0.15, 0.40)), (30, (0.15, 50.0))])
    def test_memory_does_not_grow_with_beats_times_frequencies(self, n, band):
        # one array of n x n_freqs values would take 16 MB (20,000 x 50 floats) or 4.8 MB
        # (30 x 9,970 complex values); the blocks hold at most 2**16 complex values
        x = np.random.default_rng(6).normal(800.0, 40.0, n)
        t = beat_times(x)
        tracemalloc.start()
        try:
            (value,) = band_power(t, x, [band])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0.0
        assert peak < 8 * 2**20

    def test_degenerate_band_rejected(self):
        x = np.full(30, 800.0)
        with pytest.raises(FeatureError, match="degenerate frequency band"):
            band_power(beat_times(x), x, [(0.15, 0.15)])

    @pytest.mark.parametrize("band", [(0.15, math.inf), (-math.inf, 0.15)])
    def test_unbounded_band_rejected(self, band):
        x = np.arange(30, dtype=float) + 800.0
        with pytest.raises(FeatureError, match="degenerate frequency band"):
            band_power(beat_times(x), x, [LF_BAND, band])

    @pytest.mark.parametrize("band", [(0.04, 0.044), (0.04, 0.047)])
    def test_band_with_fewer_than_two_grid_points_rejected(self, band):
        x = np.arange(30, dtype=float) + 800.0
        with pytest.raises(FeatureError, match="fewer than 2 points"):
            band_power(beat_times(x), x, [band, HF_BAND])

    def test_band_with_fewer_than_two_grid_points_rejected_on_a_flat_series(self):
        x = np.full(40, 800.0)
        with pytest.raises(FeatureError, match="fewer than 2 points"):
            band_power(beat_times(x), x, [(0.1, 0.104)])

    @pytest.mark.parametrize("bands", [(0.04, 0.15), [(0.04,)], [(0.04, 0.15, 0.2)], [], [("0.04", "0.15")], None],
                             ids=["one band unwrapped", "one edge", "three edges", "no band", "text edges", "None"])
    @pytest.mark.parametrize("flat", [False, True])
    def test_bands_must_be_pairs_of_real_numbers(self, monkeypatch, bands, flat):
        def must_not_run(*args):
            raise AssertionError("band_power computed with bands it could not read")

        monkeypatch.setattr(features, "_lomb_scargle", must_not_run)
        x = np.full(30, 800.0) if flat else np.arange(30, dtype=float) + 800.0
        with pytest.raises(FeatureError, match=r"non-empty sequence of \(lo, hi\) pairs of real numbers"):
            band_power(beat_times(x), x, bands)

    def test_needs_two_beats(self):
        with pytest.raises(FeatureError, match="at least 2 intervals"):
            band_power([0.8], [800.0], [(0.04, 0.15)])

    def test_times_and_intervals_must_align(self):
        x = np.arange(30, dtype=float) + 800.0
        with pytest.raises(FeatureError, match="same length"):
            band_power(beat_times(x)[:-1], x, [(0.04, 0.15)])

    @pytest.mark.parametrize("band", [(0.04, 0.15), (0.15, 0.40)])
    @pytest.mark.parametrize("blocks", ["below one", "one", "several and a remainder"])
    def test_stacked_rows_equal_one_row_calls(self, rng, band, blocks):
        n = 30
        lo, n_freqs = band[0], _grid_points(*band)
        height = LOMB_BLOCK_VALUES // (n * n_freqs)  # series per block: 99 for LF, 43 for HF
        rows = {"below one": 3, "one": height, "several and a remainder": 3 * height + 5}[blocks]
        t, x = rr_stack(rng, rows, n)
        assert_same_bits(band_power(t, x, [band]), np.array([band_power(*row, [band]) for row in zip(t, x)]))
        y = x - x.mean(axis=1, keepdims=True)
        (stacked,) = _lomb_scargle(t, y, [(lo, n_freqs)])
        assert_same_bits(stacked, np.stack([_lomb_scargle(*row, [(lo, n_freqs)])[0] for row in zip(t, y)]))

    def test_stacked_rows_equal_one_row_calls_past_the_in_place_threshold(self, rng):
        # 3 beats over the widest band: a block holds 43 series x 500 frequencies, so each of its
        # complex per-frequency arrays takes 344 kB, past the 256 KiB from which numpy reuses an
        # unnamed temporary in place (and rounds a complex product differently)
        bands = [(0.0, 2.5)]
        t, x = rr_stack(rng, 2 * (LOMB_BLOCK_VALUES // (3 * 500)) + 7, 3)
        assert_same_bits(band_power(t, x, bands), np.array([band_power(*row, bands) for row in zip(t, x)]))

    @pytest.mark.parametrize("bands", [
        (VLF_BAND, LF_BAND, HF_BAND), (HF_BAND, LF_BAND), (LF_BAND, LF_BAND), ((0.1, 0.2), (0.0, 2.5), VLF_BAND),
    ], ids=["baseline11", "reversed", "repeated", "past the in-place threshold"])
    @pytest.mark.parametrize("rows, n", [(None, 30), (None, 4000), (130, 3), (150, 30), (2, 4000)])
    def test_every_band_equals_its_one_band_call(self, rng, bands, rows, n):
        # the series block is sized for the widest band, so the narrower bands meet other
        # series blocks than alone; 130 series of 3 beats over (0, 2.5] Hz take blocks of 43
        # series x 500 frequencies, past numpy's 256 KiB in-place threshold
        t, x = rr_stack(rng, rows or 1, n)
        if rows is None:
            t, x = t[0], x[0]
        else:
            x[1] = 812.3  # a flat row, exactly 0 in every band
        together = band_power(t, x, bands)
        assert together.shape == x.shape[:-1] + (len(bands),)
        assert_same_bits(together, np.stack([band_power(t, x, [band])[..., 0] for band in bands], axis=-1))
        if rows is not None:
            assert_same_bits(together, np.array([band_power(*row, bands) for row in zip(t, x)]))
            assert together[1].tolist() == [0.0] * len(bands)

    def test_long_series_in_a_stack_still_take_frequency_blocks(self, rng):
        # 4,000 beats x 50 HF frequencies would be 3.2 MB of phasors at once; a block holds
        # 16 frequencies of one series, and each series meets the same blocks as alone
        t, x = rr_stack(rng, 2, 4000)
        bands = [(0.15, 0.40)]
        tracemalloc.start()
        try:
            stacked = band_power(t, x, bands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_bits(stacked, np.array([band_power(*row, bands) for row in zip(t, x)]))
        assert peak < LOMB_BLOCK_VALUES * 16 + 2**20

    def test_flat_row_in_a_stack_is_exactly_zero(self, rng):
        t, x = rr_stack(rng, 4, 30)
        x[2] = 812.3
        assert x[2].mean() != 812.3  # so centring leaves rounding noise that has power
        power = band_power(t, x, ((0.04, 0.15), (0.15, 0.40)))
        assert power[2].tolist() == [0.0, 0.0]
        assert_same_bits(power, np.array([band_power(*row, ((0.04, 0.15), (0.15, 0.40))) for row in zip(t, x)]))

    @pytest.mark.parametrize("times_shape", [(3, 29), (2, 30), (30,)])
    def test_stacked_times_and_intervals_must_align(self, rng, times_shape):
        x = rng.normal(800.0, 40.0, (3, 30))
        with pytest.raises(FeatureError, match="same length"):
            band_power(np.ones(times_shape), x, [(0.04, 0.15)])


class TestWindowedDiff:
    def test_ectopic_count_difference(self):
        x = np.full(250, 800.0)
        mask = np.zeros(250, dtype=bool)
        mask[-6:] = True        # six in the recent half
        mask[10:12] = True      # two in the older half
        delta_mean, delta_count = windowed_diff(x, mask)
        assert delta_count == 4
        assert delta_mean == 0.0

    def test_identical_halves_vanish(self):
        x = np.tile(np.linspace(700.0, 900.0, 125), 2)
        mask = np.zeros(250, dtype=bool)
        assert windowed_diff(x, mask) == (0.0, 0)

    def test_accelerating_rhythm_is_negative(self):
        x = np.r_[np.full(125, 800.0), np.full(125, 620.0)]
        delta_mean, delta_count = windowed_diff(x, np.zeros(250, dtype=bool))
        assert delta_mean == pytest.approx(-180.0)
        assert delta_count == 0

    def test_mean_uses_only_clean_beats(self):
        x = np.r_[np.full(125, 800.0), np.full(125, 620.0)]
        mask = np.zeros(250, dtype=bool)
        x[-1] = 3000.0
        mask[-1] = True
        delta_mean, _ = windowed_diff(x, mask)
        assert delta_mean == pytest.approx(-180.0)

    def test_antisymmetric_under_half_swap(self, rng):
        for _ in range(10):
            x = rng.normal(780.0, 50.0, 250)
            mask = rng.random(250) < 0.1
            swapped_x = np.r_[x[125:], x[:125]]
            swapped_m = np.r_[mask[125:], mask[:125]]
            try:
                dm, dc = windowed_diff(x, mask)
            except FeatureError:
                continue
            dm2, dc2 = windowed_diff(swapped_x, swapped_m)
            assert dm2 == pytest.approx(-dm)
            assert dc2 == -dc

    def test_shape_mismatch(self):
        with pytest.raises(FeatureError, match="same length"):
            windowed_diff(np.full(250, 800.0), np.zeros(249, dtype=bool))

    def test_window_is_even_and_fits_every_kept_record(self):
        # the halves split the window evenly, and prepare_records keeps no record shorter than it
        assert features.WINDOW_BEATS >= 2 and features.WINDOW_BEATS % 2 == 0
        assert MIN_BEATS >= features.WINDOW_BEATS

    def test_too_short(self):
        with pytest.raises(FeatureError, match="need at least 250 beats"):
            windowed_diff(np.full(249, 800.0), np.zeros(249, dtype=bool))

    def test_all_ectopic_half_rejected(self):
        x = np.full(250, 800.0)
        mask = np.zeros(250, dtype=bool)
        mask[-125:] = True
        with pytest.raises(FeatureError, match="only ectopic beats"):
            windowed_diff(x, mask)


def _entropy_inputs(rng, n):
    """Continuous, integer-ms and coarsely quantized RR values of length n."""
    x = rng.normal(800.0, 50.0, n)
    return {"continuous": x, "integer_ms": np.round(x), "quantized": np.round(x / 40.0) * 40.0}


class TestBaseline11:
    def test_names_and_length(self):
        x = np.random.default_rng(0).normal(800.0, 40.0, 120)
        values = baseline11(x, beat_times(x))
        assert len(values) == len(BASELINE11_NAMES) == 11
        assert all(type(value) is float for value in values)
        panel = dict(zip(BASELINE11_NAMES, values))
        assert panel["mean_nn"] == float(x.mean())
        assert panel["sample_entropy"] == sample_entropy(x)

    def test_constant_sequence_collapses(self):
        x = np.full(60, 800.0)
        panel = dict(zip(BASELINE11_NAMES, baseline11(x, beat_times(x))))
        assert panel["sdnn"] == 0.0
        assert panel["rmssd"] == 0.0
        assert panel["pnn50"] == 0.0
        assert panel["vlf_power"] == 0.0
        assert panel["lf_power"] == 0.0
        assert panel["hf_power"] == 0.0
        assert panel["lf_hf_ratio"] == 0.0
        assert panel["mean_nn"] == 800.0

    def test_alternating_50ms_steps(self):
        x = np.where(np.arange(40) % 2 == 0, 800.0, 850.0)
        panel = dict(zip(BASELINE11_NAMES, baseline11(x, beat_times(x))))
        assert panel["rmssd"] == pytest.approx(50.0)
        # strict inequality: a 50 ms step is not > 50 ms
        assert panel["pnn50"] == 0.0
        assert panel["poincare_sd1"] == pytest.approx(50.0 / math.sqrt(2.0))

    def test_sd1_identity_on_random_sequences(self, rng):
        for _ in range(100):
            x = rng.normal(800.0, rng.uniform(5.0, 80.0), rng.integers(10, 200))
            panel = dict(zip(BASELINE11_NAMES, baseline11(x, beat_times(x))))
            diffs = np.diff(x)
            rmssd = np.sqrt(np.mean(diffs**2))
            assert panel["poincare_sd1"] == pytest.approx(rmssd / math.sqrt(2.0), rel=1e-12)
            sd1, sd2 = poincare_widths(x)
            assert panel["poincare_sd1"] == pytest.approx(sd1, rel=1e-12)
            assert panel["poincare_sd2"] == pytest.approx(sd2, rel=1e-12)

    def test_sample_entropy_matches_loop_oracle(self, rng):
        # the match counts are integers, so the values agree exactly
        for m in (1, 2, 3):
            for n in (m + 2, m + 3, m + 5, 17, 40, 95, 200):
                for kind, x in _entropy_inputs(rng, n).items():
                    for r in (None, 0.0, 20.0):
                        assert sample_entropy(x, m=m, r=r) == sample_entropy_loops(x, m=m, r=r), (m, n, kind, r)

    def test_sample_entropy_custom_radius(self, rng):
        x = rng.normal(800.0, 50.0, 30)
        assert sample_entropy(x, r=25.0) == sample_entropy_loops(x, r=25.0)

    def test_sample_entropy_too_short(self):
        with pytest.raises(FeatureError, match="sample entropy"):
            sample_entropy([800.0, 810.0, 790.0])

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_sample_entropy_block_size_does_not_change_counts(self, rng, monkeypatch, block):
        # blocks narrower than the r-window force many sweep steps and a
        # ragged last block
        monkeypatch.setattr(features, "SAMPEN_OFFSET_BLOCK", block)
        for n in (4, 5, 33, 120):
            for x in _entropy_inputs(rng, n).values():
                for m in range(1, min(3, n - 2) + 1):
                    assert sample_entropy(x, m=m) == sample_entropy_loops(x, m=m)

    @pytest.mark.parametrize("wide_block", [False, True])
    @pytest.mark.parametrize("n_templates", [15, 16, 17, 32, 33])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sample_entropy_at_block_boundaries(self, rng, monkeypatch, m, n_templates, wide_block):
        # template counts on either side of one and two steps of the default block, and a block
        # wider than every offset, so that one step sweeps them all; r = 1e9 matches every pair,
        # so the sweep runs to the last offset
        if wide_block:
            monkeypatch.setattr(features, "SAMPEN_OFFSET_BLOCK", n_templates + 5)
        for x in _entropy_inputs(rng, n_templates + m).values():
            for r in (None, 0.0, 1e9):
                assert sample_entropy(x, m=m, r=r) == sample_entropy_loops(x, m=m, r=r), (x, r)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sample_entropy_stops_when_the_first_step_finds_no_pair(self, rng, m):
        # start values 10 ms apart in shuffled order: no pair lies within r = 9.99
        x = rng.permutation(800.0 + 10.0 * np.arange(70))
        assert sample_entropy(x, m=m, r=9.99) == sample_entropy_loops(x, m=m, r=9.99) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sample_entropy_counts_gaps_equal_to_r(self, rng, m):
        # on an integer grid many gaps are exactly r = 2.0, which abs(x_i - x_j) <= r counts
        # and the next float below 2.0 does not
        for n in (20, 64, 150):
            x = rng.integers(790, 811, n).astype(float)
            for r in (2.0, np.nextafter(2.0, 0.0)):
                assert sample_entropy(x, m=m, r=r) == sample_entropy_loops(x, m=m, r=r), (n, r)

    def test_sample_entropy_constant_sequence(self):
        # r = 0 and every pair matches at both lengths: -log(1)
        x = np.full(150, 800.0)
        assert sample_entropy(x) == sample_entropy_loops(x) == 0.0

    def test_sample_entropy_without_template_match_is_zero(self):
        x = 800.0 + 10.0 * np.arange(60)
        assert sample_entropy(x, r=0.0) == sample_entropy_loops(x, r=0.0) == 0.0
        assert sample_entropy(x, m=1, r=5.0) == sample_entropy_loops(x, m=1, r=5.0) == 0.0

    def test_sample_entropy_without_longer_match_is_log_pair_count(self):
        # templates (1, 2) at 0 and 2 match; (1, 2, 1) and (1, 2, 9) do not
        x = [1.0, 2.0, 1.0, 2.0, 9.0]
        expected = math.log(3 * 2 / 2.0)
        assert sample_entropy(x, r=0.0) == sample_entropy_loops(x, r=0.0) == expected

    @pytest.mark.parametrize("m", [0, -1])
    def test_sample_entropy_rejects_template_length_below_one(self, m):
        with pytest.raises(FeatureError, match="m >= 1"):
            sample_entropy(np.linspace(700.0, 900.0, 20), m=m)

    @pytest.mark.parametrize("r", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_sample_entropy_rejects_negative_or_non_finite_radius(self, r):
        with pytest.raises(FeatureError, match="radius r"):
            sample_entropy(np.linspace(700.0, 900.0, 20), r=r)

    def test_sample_entropy_holter_length_in_linear_memory(self):
        # an n x n distance matrix at this length would take about 3 GB
        x = np.random.default_rng(7).normal(800.0, 40.0, 20_000)
        tracemalloc.start()
        try:
            value = sample_entropy(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0.0
        assert peak < 64 * 2**20

    def test_panel_holter_length_in_linear_memory(self):
        record = RRRecord("holter", np.random.default_rng(8).normal(800.0, 40.0, 20_000), "Control", "p")
        tracemalloc.start()
        try:
            values = extract([record], "baseline11")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (11,) and np.isfinite(values).all()
        assert peak < 64 * 2**20

    def test_panel_too_short(self):
        with pytest.raises(FeatureError, match="too short for the baseline"):
            baseline11([800.0, 810.0, 790.0], [0.8, 1.61, 2.4])


class TestExtract:
    def _record(self, n=300, seed=5):
        rng = np.random.default_rng(seed)
        return RRRecord("rec", rng.normal(800.0, 35.0, n), "VTA", "p")

    def test_recent_with_windowed_has_seven_features(self):
        values = extract([self._record()], "recent")[0]
        assert feature_names("recent") == RECENT_NAMES + WINDOWED_NAMES
        assert values.shape == (7,)

    def test_baseline_panel_has_eleven(self):
        values = extract([self._record()], "baseline11")[0]
        assert feature_names("baseline11") == BASELINE11_NAMES
        assert values.shape == (11,)

    def test_pure_function(self):
        rec = self._record()
        np.testing.assert_array_equal(extract([rec], "recent")[0], extract([rec], "recent")[0])

    def test_error_names_the_record(self):
        rec = RRRecord("tiny", np.full(40, 800.0), "Control", "p")
        with pytest.raises(FeatureError, match="record 'tiny'"):
            extract([rec], "recent")

    def test_windowed_features_see_raw_sequence(self):
        # an ectopic beat in the recent half must be visible to the count
        rng = np.random.default_rng(9)
        x = rng.normal(800.0, 10.0, 300)
        x[-20] = 1500.0
        rec = RRRecord("r", x, "VTA", "p")
        by_name = dict(zip(feature_names("recent"), extract([rec], "recent")[0]))
        assert by_name["delta_ectopic_count"] >= 1.0

    @pytest.mark.parametrize("feature_set", ["recent", "baseline11"])
    def test_band_power_uses_the_kept_beats_own_times(self, feature_set):
        # one ectopic beat inside the last 30 kept beats: its removal leaves a gap in time
        # that the periodogram must see, not close up
        x = 800.0 + 40.0 * np.sin(np.arange(300) * 0.9)
        x[-12] = 1400.0
        rec = RRRecord("gap", x, "VTA", "p")
        mask = detect_ectopic(x)
        assert mask.nonzero()[0].tolist() == [x.size - 12]
        kept_s, filtered = beat_times(x)[~mask], x[~mask]
        if feature_set == "recent":
            kept_s, filtered = kept_s[-30:], filtered[-30:]
        by_name = dict(zip(feature_names(feature_set), extract([rec], feature_set)[0]))
        for name, band in (("lf_power", (0.04, 0.15)), ("hf_power", (0.15, 0.40))):
            assert by_name[name] == pytest.approx(lomb_band_power(kept_s, filtered, band), rel=1e-8)
            gap_closed = lomb_band_power(beat_times(filtered), filtered, band)
            assert by_name[name] != pytest.approx(gap_closed, rel=1e-3)

    def test_recent_family_holds_its_windows_not_its_records(self):
        # a per-record view of the last beats would keep each record's kept intervals and times
        # alive, 6.7 kB per record here and 13 MB in all
        n = 2000
        rng = np.random.default_rng(12)
        records = [RRRecord(f"r{i}", rng.normal(800.0, 35.0, 420), "VTA", "p") for i in range(n)]
        tracemalloc.start()
        try:
            X = extract(records, "recent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (n, 7) and np.isfinite(X).all()
        window = n * RECENT_BEATS * 8  # one (n, RECENT_BEATS) float array
        # the intervals and times windows, one phasor block, X, and what band_power holds for the
        # whole stack: the centred window and the HF band's (n, 50) periodogram.  The LF band's
        # (n, 22) periodogram, held beside it, takes 352 kB of the 1 MiB slack.
        held = 2 * window + LOMB_BLOCK_VALUES * 16 + X.nbytes + window + n * _grid_points(0.15, 0.40) * 8
        assert peak < held + 2**20

    @pytest.mark.parametrize("feature_set, calls", [("recent", 1), ("baseline11", 3)])
    def test_one_band_power_call_per_record_set_or_panel(self, monkeypatch, feature_set, calls):
        # the recent windows are one stack; each baseline11 record reports its three bands at once
        seen = []

        def spy(times_s, intervals_ms, bands):
            seen.append(tuple(bands))
            return band_power(times_s, intervals_ms, bands)

        monkeypatch.setattr(features, "band_power", spy)
        extract([self._record(seed=seed) for seed in range(3)], feature_set)
        want = (LF_BAND, HF_BAND) if feature_set == "recent" else (VLF_BAND, LF_BAND, HF_BAND)
        assert seen == [want] * calls

    def test_rejects_nan_naming_the_feature(self, monkeypatch):
        monkeypatch.setattr(features, "band_power", lambda *args, **kwargs: float("nan"))
        with pytest.raises(FeatureError, match="record 'rec': non-finite value for feature 'lf_power'"):
            extract([self._record()], "recent")


def flagged_records(count=4):
    """Records whose every recent window and panel holds flagged beats: premature beats and their pauses."""
    rng = np.random.default_rng(21)
    records = []
    for i in range(count):
        x = rng.normal(800.0, 25.0, 420)
        for at in rng.choice(np.arange(10, 410), size=12, replace=False):
            x[at], x[at + 1] = 450.0, 1150.0
        x[-8] = 1500.0  # one inside the last RECENT_BEATS kept beats
        records.append(RRRecord(f"f{i}", x, "VTA" if i % 2 else "Control", "p"))
    return records


class TestBothFamilies:
    @pytest.mark.parametrize("source", ["conftest", "flagged"])
    def test_each_block_equals_its_one_family_matrix(self, prepared_records, source):
        records = prepared_records[0] if source == "conftest" else flagged_records()
        if source == "flagged":
            assert all(detect_ectopic(rec.intervals_ms)[-RECENT_BEATS - 8:].any() for rec in records)
        for families in (FEATURE_SETS, FEATURE_SETS[::-1]):
            both = extract(records, families)
            start = 0
            for family in families:
                block = both[:, start:start + len(feature_names(family))]
                assert_same_bits(np.ascontiguousarray(block), extract(records, family))
                start += block.shape[1]
            assert both.shape == (len(records), start)

    def test_one_ectopic_pass_per_record(self, monkeypatch):
        calls = []

        def counting(intervals_ms):
            calls.append(len(intervals_ms))
            return detect_ectopic(intervals_ms)

        monkeypatch.setattr(features, "detect_ectopic", counting)
        records = flagged_records(3)
        extract(records, FEATURE_SETS)
        assert calls == [len(rec) for rec in records]

    def test_a_repeated_family_counts_once(self):
        records = flagged_records(2)
        assert_same_bits(extract(records, ["recent", "recent"]), extract(records, "recent"))

    def test_cohort_finds_each_family_by_its_columns(self, prepared_records):
        # lf_power and hf_power name a column of both families
        records, patients = prepared_records
        cohort = build_cohort(records, patients, FEATURE_SETS)
        assert cohort.families == FEATURE_SETS
        assert cohort.names == feature_names("recent") + feature_names("baseline11")
        assert cohort.names.count("lf_power") == cohort.names.count("hf_power") == 2
        for family in FEATURE_SETS:
            one = build_cohort(records, patients, family)
            part = cohort.family(family)
            assert part.families == one.families == (family,)
            assert part.names == one.names
            assert_same_bits(np.ascontiguousarray(part.X), one.X)
            assert np.shares_memory(part.X, cohort.X)  # a view, not a copy
            for name in ("record_ids", "patient_ids", "num_decades"):
                assert getattr(part, name) == getattr(one, name)
            for name in ("y_vta", "decade_index", "y_nyhac", "bmi", "bmi_mask"):
                assert_same_bits(getattr(part, name), getattr(one, name))

    def test_a_family_the_cohort_lacks_is_an_error(self, prepared_records):
        with pytest.raises(FeatureError, match="^the cohort holds no family 'baseline11', only \\('recent',\\)$"):
            build_cohort(*prepared_records, "recent").family("baseline11")

    def test_a_hand_built_cohort_holds_no_family(self):
        with pytest.raises(FeatureError, match="holds no family 'recent'"):
            gaussian_task(20).family("recent")

    @pytest.mark.parametrize("families", [("recent",), ("baseline11",), FEATURE_SETS])
    def test_families_must_hold_every_column(self, families):
        cohort = small_cohort(np.zeros((2, 3)), ("a", "b", "c"), ("r1", "r2"), [1, 0])
        with pytest.raises(FeatureError, match="do not name the 3 columns of X"):
            replace(cohort, families=families)

    def test_families_must_name_the_columns(self):
        recent = feature_names("recent")
        cohort = small_cohort(np.zeros((2, len(recent))), tuple(reversed(recent)), ("r1", "r2"), [1, 0])
        with pytest.raises(FeatureError, match="do not name the 7 columns of X"):
            replace(cohort, families=("recent",))
        assert replace(cohort, names=recent, families=("recent",)).family("recent").names == recent

    @pytest.mark.parametrize("families", [[], ()])
    def test_an_empty_family_list_is_an_error(self, prepared_records, families):
        records, patients = prepared_records
        with pytest.raises(FeatureError, match="need at least one feature family"):
            extract(records, families)
        with pytest.raises(FeatureError, match="need at least one feature family"):
            build_cohort(records, patients, families)


def test_features_do_not_depend_on_the_blas_thread_count(tacho_dataset):
    # the parent process extracts the features at OpenBLAS's default thread count, and --jobs
    # workers compute at one thread; both must see the same matrices
    code = (
        "import hashlib, sys\n"
        "from vtapred import load_dataset, prepare_records\n"
        "from vtapred.features import FEATURE_SETS, extract\n"
        "records = prepare_records(load_dataset(sys.argv[1], sys.argv[2])[0])\n"
        "print(hashlib.sha256(b''.join(extract(records, name).tobytes() for name in FEATURE_SETS)).hexdigest())\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    digests = [
        subprocess.run([sys.executable, "-c", code, *map(str, tacho_dataset)], env={**env, **threads},
                       capture_output=True, text=True, timeout=120, check=True).stdout
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(digests[0]) == 65 and digests[0] == digests[1]


class TestBuildCohort:
    def test_rows_follow_records_and_encode_unknowns(self):
        rng = np.random.default_rng(3)
        records = [
            RRRecord("r1", rng.normal(800.0, 35.0, 300), "VTA", "p1"),
            RRRecord("r2", rng.normal(800.0, 35.0, 300), "Control", "p2"),
        ]
        patients = {
            "p1": PatientMeta("p1", 1950, 3, 25.0),
            "p2": PatientMeta("p2"),
            "p3": PatientMeta("p3", 1970),  # no record, but its decade is in the vocabulary
        }
        cohort = build_cohort(records, patients, "recent")
        np.testing.assert_array_equal(cohort.X, np.stack([extract([rec], "recent")[0] for rec in records]))
        assert cohort.names == feature_names("recent")
        assert cohort.record_ids == ("r1", "r2")
        assert cohort.patient_ids == ("p1", "p2")
        assert cohort.y_vta.tolist() == [1, 0]
        assert cohort.decade_index.tolist() == [0, 2]
        assert cohort.num_decades == 2
        assert cohort.y_nyhac.tolist() == [2, -1]
        assert cohort.bmi.tolist() == [25.0, 0.0]
        assert cohort.bmi_mask.tolist() == [True, False]

    def test_unknown_decade_gets_its_own_row_without_any_known_decade(self):
        rng = np.random.default_rng(4)
        records = [RRRecord(f"r{i}", rng.normal(800.0, 35.0, 300), "VTA", f"p{i}") for i in range(2)]
        cohort = build_cohort(records, {"p0": PatientMeta("p0"), "p1": PatientMeta("p1", nyhac=2)})
        assert cohort.num_decades == 1
        assert cohort.decade_index.tolist() == [1, 1]

    def test_empty_record_list(self):
        cohort = build_cohort([], {})
        assert len(cohort) == 0
        assert cohort.X.shape == (0, 7)
        assert cohort.num_decades == 1


class TestStandardizer:
    def test_midpoint_maps_to_half(self):
        std = fit_standardizer(np.array([[0.0], [10.0]]))
        assert standardize(std, np.array([5.0]))[0] == 0.5

    def test_out_of_range_clamps(self):
        std = fit_standardizer(np.array([[0.0], [10.0]]))
        assert standardize(std, np.array([12.0]))[0] == 1.0
        assert standardize(std, np.array([-3.0]))[0] == 0.0

    def test_degenerate_feature_maps_to_half(self):
        std = fit_standardizer(np.array([[4.0, 1.0], [4.0, 3.0]]))
        out = standardize(std, np.array([99.0, 2.0]))
        assert out[0] == 0.5
        assert out[1] == pytest.approx(0.5)

    def test_empty_fit_rejected(self):
        with pytest.raises(FeatureError, match="empty"):
            fit_standardizer([])

    def test_monotone_per_feature(self, rng):
        train = rng.normal(0.0, 2.0, (30, 4))
        std = fit_standardizer(train)
        lo = standardize(std, rng.normal(0.0, 2.0, 4))
        hi = standardize(std, std.maxima + 1.0)
        assert np.all(hi >= lo)

    def test_training_data_lands_in_unit_box(self, rng):
        train = rng.normal(0.0, 3.0, (40, 5))
        std = fit_standardizer(train)
        for row in train:
            out = standardize(std, row)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


def small_cohort(X, names, record_ids, y_vta) -> Cohort:
    """A cohort with the given features and labels and no auxiliary targets."""
    n = len(record_ids)
    return Cohort(
        X=np.array(X, dtype=float), names=names, record_ids=record_ids, patient_ids=record_ids,
        y_vta=np.array(y_vta), decade_index=np.zeros(n, dtype=int), num_decades=1,
        y_nyhac=np.full(n, -1), bmi=np.zeros(n), bmi_mask=np.zeros(n, dtype=bool),
    )


class TestFeatureMatrixExport:
    def test_round_trip_format(self, tmp_path):
        cohort = small_cohort([[1.0, 0.123456789], [2.0, 1e-7]], ("f1", "f2"), ("r1", "r2"), [1, 0])
        out = tmp_path / "features.csv"
        write_feature_matrix(out, cohort)
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,label,f1,f2"
        assert lines[1] == "r1,VTA,1,0.123457"
        assert lines[2] == "r2,Control,2,1e-07"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(FeatureError, match="aligned"):
            small_cohort(np.empty((0, 1)), ("f1",), ("r1",), [1])


class TestFeatureSetValidation:
    @pytest.mark.parametrize("call", [
        lambda: feature_names("mystery"), lambda: extract([], "mystery"), lambda: build_cohort([], {}, "mystery"),
    ], ids=["feature_names", "extract", "build_cohort"])
    def test_unknown_feature_set(self, call):
        with pytest.raises(FeatureError, match="feature_set must be one of"):
            call()

    def test_band_adjacency_enforced(self):
        # HF starts where LF ends, so no gap can open between the two band columns
        assert LF_BAND[1] == HF_BAND[0]
        x = 800.0 + 40.0 * np.sin(np.arange(WINDOW_BEATS) * 1.3)  # as few beats as the trends take
        record = RRRecord("r0", x, "Control", "p0")
        values = dict(zip(RECENT_NAMES, extract([record], "recent")[0]))
        t = beat_times(x)
        recent, recent_s = x[-30:], t[-30:]
        bands = ((0.04, 0.15), (0.15, 0.40))
        assert [values["lf_power"], values["hf_power"]] == band_power(recent_s, recent, bands).tolist()
        panel = dict(zip(BASELINE11_NAMES, baseline11(x, t)))
        assert [panel["lf_power"], panel["hf_power"]] == band_power(t, x, bands).tolist()
