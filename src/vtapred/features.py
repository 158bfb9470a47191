"""Feature extraction from boundary-truncated RR-interval sequences.

Two feature families are supported:

* ``recent``: statistics of the most recent beats (mean/min/max RR plus
  low- and high-frequency band power) and two windowed trend features that
  compare the last beats against the ones just before.
* ``baseline11``: a classic full-sequence panel of eleven time-domain,
  frequency-domain, and nonlinear statistics, used as a reference point.

Ectopic beats are detected with a running-mean rule and removed before any
statistic other than the windowed ectopic count is computed, once per record
for every family that :func:`extract` computes.  A :class:`Cohort` aligns the
targets to the rows of that one matrix.

The recipe is fixed: the constants below give the recent window, the trend
window, the ectopic rule and the standard LF and HF bands (Task Force of the
ESC and NASPE, Circulation 93(5), 1996).  The family's name is the only
choice, and each name gives one block of columns.

Band power comes from one Lomb-Scargle kernel that takes a stack of
equal-length series and every band a caller reports.  The ``recent``
family's windows all have ``RECENT_BEATS`` beats, so both its bands are one
call for the whole record set, and ``baseline11`` makes one call per record;
the kernel blocks over series and frequencies so that a block holds at most
``LOMB_BLOCK_VALUES`` phasors, and every row of a stack equals the one-series
call bit for bit.  That equality is why the kernel binds each complex factor
to a name: numpy reuses an unnamed temporary of 256 KiB or more in place, and
a complex product computed in place rounds differently.

Sample entropy sorts the templates by their first value and sweeps partner
offsets in steps of ``SAMPEN_OFFSET_BLOCK``.  A step is offset-major: one
row per offset, whose gaps are one contiguous difference of two runs of the
sorted coordinates.  A call makes three buffers once, each of
``SAMPEN_OFFSET_BLOCK`` rows by N - 1 columns for its N templates: float
gaps and two boolean masks, 10 bytes per row and template, 160 at the
default block.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .dataset import LABELS, write_csv

FEATURE_SET_RECENT = "recent"
FEATURE_SET_BASELINE11 = "baseline11"
FEATURE_SETS = (FEATURE_SET_RECENT, FEATURE_SET_BASELINE11)

RECENT_BEATS = 30  # clean beats behind the recent-beat statistics
WINDOW_BEATS = 250  # raw beats of the windowed trends (even), split into two halves
ECTOPIC_THRESHOLD = 0.2  # relative deviation from the running mean that flags a beat
ECTOPIC_REF_BEATS = 5  # accepted beats behind that running mean
FREQ_GRID_STEP_HZ = 0.005
VLF_BAND = (0.003, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)  # HF starts where LF ends
SAMPEN_OFFSET_BLOCK = 16  # sorted partner offsets that sample_entropy checks per step
LOMB_BLOCK_VALUES = 2**16  # complex phasors that _lomb_scargle holds per block of frequencies

RECENT_NAMES = ("mean_rr", "lf_power", "hf_power", "min_rr", "max_rr")
WINDOWED_NAMES = ("delta_mean_rr", "delta_ectopic_count")
BASELINE11_NAMES = (
    "mean_nn", "sdnn", "rmssd", "pnn50",
    "vlf_power", "lf_power", "hf_power", "lf_hf_ratio",
    "poincare_sd1", "poincare_sd2", "sample_entropy",
)


class FeatureError(Exception):
    """Input unfit for the requested feature computation."""


def detect_ectopic(intervals_ms) -> np.ndarray:
    """Flag beats deviating from the running mean of recent accepted beats.

    A beat is ectopic when it differs from the mean of the previous
    ``ECTOPIC_REF_BEATS`` non-ectopic beats by more than
    ``ECTOPIC_THRESHOLD`` (relative).  The first ``ECTOPIC_REF_BEATS`` beats
    are assumed normal and seed the reference.  Flagged beats do not update
    the reference, so a run of short beats after an ectopic one keeps being
    measured against the last sane baseline.

    Returns a boolean mask aligned with the input (True = ectopic).
    """
    threshold, ref_beats = ECTOPIC_THRESHOLD, ECTOPIC_REF_BEATS
    x = np.asarray(intervals_ms, dtype=float)
    if x.ndim != 1 or x.size < ref_beats + 1:
        raise FeatureError("sequence too short for ectopic filtering")
    # Python floats do the same IEEE arithmetic as numpy scalars, only faster.
    # The seed total is summed left to right: builtin sum() compensates on
    # floats from Python 3.12 on, which would move the bits.
    beats = x.tolist()
    recent = deque(beats[:ref_beats])
    total = 0.0
    for value in recent:
        total += value
    flagged = []
    for i in range(ref_beats, len(beats)):
        value = beats[i]
        reference = total / ref_beats
        if abs(value - reference) > threshold * reference:
            flagged.append(i)
        else:
            total += value - recent.popleft()
            recent.append(value)
    mask = np.zeros(x.size, dtype=bool)
    mask[flagged] = True
    return mask


def _grid_points(lo: float, hi: float) -> int:
    """How many points ``lo + k * FREQ_GRID_STEP_HZ`` (k = 1, 2, ...) lie in ``(lo, hi]``; edges finite."""
    return int(np.floor((hi - lo) / FREQ_GRID_STEP_HZ + 1e-9))


def band_power(times_s, intervals_ms, bands) -> np.ndarray:
    """Spectral power of an RR sequence, or of each row of a stack, inside each of ``bands``.

    ``times_s`` holds each beat's time in seconds (the end of its interval)
    and ``intervals_ms`` its interval.  The caller passes the kept beats at
    their own timestamps, so a removed ectopic beat leaves a gap in time, as
    the Lomb-Scargle method expects (Lomb 1976; Clifford & Tarassenko 2005).
    For each ``(lo, hi)`` of ``bands``, the periodogram of the
    mean-subtracted intervals is evaluated on the points
    ``lo + k * FREQ_GRID_STEP_HZ`` in ``(lo, hi]`` and integrated with the
    trapezoid rule.  An all-equal sequence has no power anywhere and gives 0.
    Each series is mean-centred but not detrended, so a slow drift or a rate
    ramp inside the series (such as the 30 beats of ``RECENT_BEATS``) reads
    as LF power.
    ``bands`` other than a non-empty sequence of such pairs of real numbers
    is a :class:`FeatureError`, on any series.

    Returns an ``(..., len(bands))`` array: a 1-D sequence gives one value
    per band, and an (..., n) stack of equal-length series (times and
    intervals of one shape) gives one row of them per series.  Every value
    equals, bit for bit, the call on that series and that band alone: all
    series and bands go through one :func:`_lomb_scargle` call.
    """
    if not (isinstance(bands, Sequence) and bands and all(
            isinstance(band, Sequence) and len(band) == 2 and all(isinstance(edge, Real) for edge in band)
            for band in bands)):
        raise FeatureError(f"bands must be a non-empty sequence of (lo, hi) pairs of real numbers, got {bands!r}")
    grid = []
    for lo, hi in bands:
        if not (lo < hi and np.isfinite(hi - lo)):
            raise FeatureError(f"degenerate frequency band ({lo:g}, {hi:g})")
        n_freqs = _grid_points(lo, hi)
        if n_freqs < 2:  # the trapezoid of a single point is 0
            raise FeatureError(
                f"band ({lo:g}, {hi:g}) holds fewer than 2 points of the {FREQ_GRID_STEP_HZ:g} Hz grid")
        grid.append((lo, n_freqs))
    x = np.asarray(intervals_ms, dtype=float)
    t = np.asarray(times_s, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise FeatureError("need at least 2 intervals for band power")
    if t.shape != x.shape:
        raise FeatureError("beat times and intervals must have the same length")
    flat = np.ptp(x, axis=-1) == 0
    pgrams = _lomb_scargle(t, x - x.mean(axis=-1, keepdims=True), grid)
    power = np.stack([FREQ_GRID_STEP_HZ * (p.sum(axis=-1) - 0.5 * (p[..., 0] + p[..., -1])) for p in pgrams], axis=-1)
    return np.where(flat[..., None], 0.0, power)


def _lomb_scargle(times_s: np.ndarray, centred: np.ndarray, grid: list[tuple[float, int]]) -> list[np.ndarray]:
    """Lomb-Scargle power of ``centred`` at ``lo_hz + k * FREQ_GRID_STEP_HZ``, k = 1..n_freqs, per band.

    ``grid`` holds one ``(lo_hz, n_freqs)`` pair per band, and the result
    one (..., n_freqs) periodogram per band.  Unit weights, no floating
    mean, power in the classic units
    ``((sum y cos)^2 / sum cos^2 + (sum y sin)^2 / sum sin^2) / 2`` of the
    phases ``w (t - tau)``; the same as SciPy's ``lombscargle`` up to
    rounding.  ``times_s`` and ``centred`` are one series of n beats or an
    (..., n) stack of them.

    Each beat's phasor ``exp(i w t)`` is walked along the uniform grid by
    rotation.  Each band's frequencies go in blocks of at most
    ``LOMB_BLOCK_VALUES // n`` (at least one); each block starts from a
    direct exponential, and its later rows are earlier rows times powers of
    the one-step rotation ``exp(i 2 pi FREQ_GRID_STEP_HZ t)``.  So the
    rounding of the rotation cannot build up past one block, and a series
    meets the same frequency blocks alone, in a stack or beside other bands.
    The series of a stack go in blocks too, as many as keep the widest
    frequency block at most ``LOMB_BLOCK_VALUES`` phasors (at least one
    series); a series block's complex copy and rotation serve every band,
    and one phasor buffer serves every frequency block.  So besides the
    result, memory is O(LOMB_BLOCK_VALUES + n) however many series, bands
    and frequencies there are.
    The tau-shifted sums follow in closed form from the first-pass sums, with
    no second trig pass.

    Each series' sums are the same BLAS calls on the same (frequencies, n)
    block whether it comes alone or in a stack, so every row equals its 1-D
    call bit for bit.  That is why every complex factor is bound to a name
    before it is used: numpy reuses an unnamed temporary of 256 KiB or more
    in place, and a complex product computed in place rounds differently.
    """
    n = times_s.shape[-1]
    most = max(1, LOMB_BLOCK_VALUES // n)  # frequencies per block
    pgrams = [np.empty(times_s.shape[:-1] + (n_freqs,)) for _, n_freqs in grid]
    # every band's frequency blocks: (band start, first grid index, the block's columns of the periodogram)
    blocks = [(lo_hz, start, pgram.reshape(-1, n_freqs)[:, start:start + most])
              for (lo_hz, n_freqs), pgram in zip(grid, pgrams) for start in range(0, n_freqs, most)]
    width = max(columns.shape[1] for *_, columns in blocks)
    height = max(1, LOMB_BLOCK_VALUES // (n * width))  # series per block
    all_times = times_s.reshape(-1, n)
    all_centred = centred.reshape(-1, n)
    phasors = np.empty(width * min(height, len(all_times)) * n, dtype=complex)
    epsneg = np.finfo(np.float64).epsneg
    for first in range(0, len(all_times), height):
        t = all_times[first:first + height]
        y = all_centred[first:first + height, :, None].astype(complex)  # a mixed real-complex matmul skips BLAS
        rotation = np.exp(1j * (2.0 * np.pi * FREQ_GRID_STEP_HZ) * t)
        for lo_hz, start, columns in blocks:
            # contiguous and frequency-major, so that the rows a doubling step reads and the rows
            # it writes are disjoint address ranges, which numpy tells apart without a copy
            block = phasors[:columns.shape[1] * len(t) * n].reshape(-1, len(t), n)
            np.exp(1j * (2.0 * np.pi * (lo_hz + FREQ_GRID_STEP_HZ * (start + 1))) * t, out=block[0])
            # frequencies [filled, 2 * filled) are [0, filled) rotated by filled grid steps
            turn, filled = rotation, 1
            while filled < len(block):
                count = min(filled, len(block) - filled)
                np.multiply(block[:count], turn, out=block[filled:filled + count])
                filled += count
                turn = turn * turn
            z = block.transpose(1, 0, 2)  # (series, frequencies, beats)
            yz = (z @ y)[..., 0]  # sum of y exp(i w t): yc + i ys
            z2 = np.matmul(z[..., None, :], z[..., :, None])[..., 0, 0]  # sum of exp(2i w t): n (cc - ss) + 2i cs
            # tau makes the shifted cosine and sine sums orthogonal: 2 tau = arg z2.  The shift
            # turns yc + i ys into yz exp(-i tau), and cc_tau = cos^2(tau) cc + 2 sin(tau) cos(tau) cs
            # + sin^2(tau) ss into (n + |z2|) / 2; cc and ss below are divided by n.
            back = np.exp(-0.5j * np.angle(z2))
            shifted = yz * back
            cc = 0.5 + 0.5 * np.abs(z2) / n
            ss = 1.0 - cc
            cc[cc < epsneg] = epsneg
            ss[ss < epsneg] = epsneg
            columns[first:first + height] = (shifted.real ** 2 / cc + shifted.imag ** 2 / ss) / (2.0 * n)
    return pgrams


def windowed_diff(intervals_ms, ectopic_mask) -> tuple[float, int]:
    """Trend features over the last ``WINDOW_BEATS`` raw beats.

    The window is split in the middle: B holds the older half, A the most
    recent half.  Returns (mean_A - mean_B, ectopic_count_A - ectopic_count_B)
    where the means use non-ectopic beats only and the counts use the mask
    as-is.  A fully ectopic half-window has no defined mean and is an error.
    """
    x = np.asarray(intervals_ms, dtype=float)
    mask = np.asarray(ectopic_mask, dtype=bool)
    if x.shape != mask.shape:
        raise FeatureError("intervals and ectopic mask must have the same length")
    if x.size < WINDOW_BEATS:
        raise FeatureError(f"need at least {WINDOW_BEATS} beats for windowed features")
    half = WINDOW_BEATS // 2
    recent, recent_mask = x[-half:], mask[-half:]
    older, older_mask = x[-WINDOW_BEATS:-half], mask[-WINDOW_BEATS:-half]
    kept_recent = recent[~recent_mask]
    kept_older = older[~older_mask]
    if kept_recent.size == 0 or kept_older.size == 0:
        raise FeatureError("a half-window contains only ectopic beats")
    delta_mean = float(kept_recent.mean() - kept_older.mean())
    delta_count = int(recent_mask.sum()) - int(older_mask.sum())
    return delta_mean, delta_count


def sample_entropy(intervals_ms, m: int = 2, r: float | None = None) -> float:
    """Sample entropy with Chebyshev distance and self-matches excluded.

    ``m`` must be at least 1 and ``r`` finite and non-negative; ``r``
    defaults to 0.2 * sample standard deviation.  Degenerate counts get
    the usual conventions: no template matches at length m returns 0, and no
    matches at length m+1 returns the maximum resolvable value
    ``log(N*(N-1)/2)`` for the N = n - m templates.

    The pair counts are exact (Richman & Moorman 2000), found by a
    sort-and-sweep as in Pan et al. 2011.  The template start values are
    sorted once; a pair can match only if its first coordinates lie within
    ``r``, and such pairs sit at small offsets in sorted order.  Offsets are
    swept in steps of ``SAMPEN_OFFSET_BLOCK``, checking every coordinate of
    each pair with the same ``abs(x_i - x_j) <= r`` test, until a step
    admits no pair.  Time is O(n * w) for w the most start values within
    ``r`` of one of them, so O(n^2) when all lie within ``r``.

    A step is offset-major: its row t holds the pairs at offset
    ``offset + t``, and a coordinate's gaps along that row are one
    contiguous difference of two runs of the sorted coordinates, so each
    numpy loop covers the whole row.  The coordinates past the last
    template are ``+inf``, so one row width serves every offset of a step.
    Each step writes into three buffers of ``SAMPEN_OFFSET_BLOCK`` rows by
    N - 1 columns, made once per call: the float gaps and two boolean
    masks, 8 + 1 + 1 bytes per template and row (160 bytes per template at
    the default block).  With the sorted coordinates, memory is O(n).
    """
    x = np.asarray(intervals_ms, dtype=float)
    n = x.size
    if m < 1:
        raise FeatureError(f"sample entropy needs m >= 1, got m={m}")
    if n < m + 2:
        raise FeatureError(f"need at least {m + 2} beats for sample entropy with m={m}")
    if r is None:
        r = 0.2 * float(np.std(x, ddof=1))
    if not (np.isfinite(r) and r >= 0):
        raise FeatureError(f"sample entropy needs a finite radius r >= 0, got r={r}")
    n_templates = n - m
    block = SAMPEN_OFFSET_BLOCK
    order = np.argsort(x[:n_templates], kind="stable")
    # coords[k, p]: coordinate k of the template at sorted position p; the
    # +inf tail keeps partners past the last template from ever matching
    coords = np.full((m + 1, n_templates + block), np.inf)
    coords[:, :n_templates] = x[order + np.arange(m + 1)[:, None]]
    # partners[k, t, p] is coords[k, p + t], a view whose rows are contiguous
    partners = np.lib.stride_tricks.sliding_window_view(coords, block, axis=1).transpose(0, 2, 1)
    gap_buffer = np.empty(block * (n_templates - 1))
    close_buffer = np.empty(gap_buffer.size, dtype=bool)
    near_buffer = np.empty(gap_buffer.size, dtype=bool)
    matches_m = matches_m1 = 0
    for offset in range(1, n_templates, block):
        width = n_templates - offset
        # row t, column i: the pair of sorted positions i and i + offset + t.  Each step takes
        # the leading block * width elements of a buffer: numpy's loops ran up to three times
        # slower on a column slice of a wider array than on a contiguous one.
        gap, close, near = (buffer[:block * width].reshape(block, width)
                            for buffer in (gap_buffer, close_buffer, near_buffer))
        # the sorted gap is non-negative, so it equals abs(x_i - x_j) exactly
        np.subtract(partners[0, :, offset:n_templates], coords[0, :width], out=gap)
        np.less_equal(gap, r, out=close)
        if not close.any():
            break  # sorted gaps only grow with the offset
        for k in range(1, m + 1):
            if k == m:
                matches_m += np.count_nonzero(close)
            np.subtract(partners[k, :, offset:n_templates], coords[k, :width], out=gap)
            np.abs(gap, out=gap)
            np.less_equal(gap, r, out=near)
            close &= near
        matches_m1 += np.count_nonzero(close)
    if matches_m == 0:
        return 0.0
    if matches_m1 == 0:
        return float(np.log(n_templates * (n_templates - 1) / 2.0))
    return float(-np.log(matches_m1 / matches_m))


def _poincare(x: np.ndarray) -> tuple[float, float]:
    """Short- and long-term Poincare dispersion (SD1, SD2).

    SD1 is the RMS distance of successive-beat points from the identity line,
    which works out to RMSSD / sqrt(2); SD2 is the spread of the projections
    along that line.
    """
    diffs = np.diff(x)
    sd1 = float(np.sqrt(np.mean((diffs / np.sqrt(2.0)) ** 2)))
    along = (x[1:] + x[:-1]) / np.sqrt(2.0)
    sd2 = float(np.std(along, ddof=1))
    return sd1, sd2


def baseline11(intervals_ms, times_s) -> tuple[float, ...]:
    """The eleven-feature full-sequence reference panel, in ``BASELINE11_NAMES`` order.

    That order is mean NN, SDNN, RMSSD, pNN50, VLF, LF and HF power, the
    LF/HF ratio, Poincare SD1 and SD2, and sample entropy.  Expects an
    ectopic-filtered sequence and its beats' times in seconds (see
    :func:`band_power`); uses every beat of it rather than only the recent
    window.  pNN50 counts successive differences strictly greater than 50 ms;
    the LF/HF ratio is defined as 0 when there is no HF power at all.
    RMSSD, pNN50 and SD1/SD2 difference the filtered series, so the beats on
    either side of a removed beat count as one successive pair.
    """
    x = np.asarray(intervals_ms, dtype=float)
    # sample entropy (m=2) needs 4 beats, SD2 needs 3; 4 covers everything
    if x.size < 4:
        raise FeatureError("sequence too short for the baseline feature panel")
    diffs = np.diff(x)
    vlf, lf, hf = band_power(times_s, x, (VLF_BAND, LF_BAND, HF_BAND)).tolist()
    return (
        float(x.mean()),
        float(np.std(x, ddof=1)),
        float(np.sqrt(np.mean(diffs**2))),
        float(np.mean(np.abs(diffs) > 50.0)),
        vlf,
        lf,
        hf,
        lf / hf if hf > 0 else 0.0,
        *_poincare(x),
        sample_entropy(x),
    )


def feature_names(feature_set: str) -> tuple[str, ...]:
    """Names of the columns that :func:`extract` returns for the family ``feature_set``, in order."""
    if feature_set not in FEATURE_SETS:
        raise FeatureError(f"feature_set must be one of {FEATURE_SETS}, got {feature_set!r}")
    return BASELINE11_NAMES if feature_set == FEATURE_SET_BASELINE11 else RECENT_NAMES + WINDOWED_NAMES


def _families(feature_set: str | Sequence[str]) -> tuple[str, ...]:
    """The families of ``feature_set``, one family's name or a sequence of them, in order and each once."""
    families = tuple(dict.fromkeys([feature_set] if isinstance(feature_set, str) else feature_set))
    if not families:
        raise FeatureError(f"need at least one feature family of {FEATURE_SETS}")
    return families


def extract(records, feature_set: str | Sequence[str]) -> np.ndarray:
    """The values of a family, or of a sequence of families, for a sequence of truncated records.

    Returns a ``(len(records), f)`` array, one row per record in order and
    each family's :func:`feature_names` columns in turn, whose bits do not
    depend on the other families; every value is finite.  A pure function,
    so results can be computed once and shared across folds and seeds.

    Each record's ectopic mask and beat times are computed once for every
    family.  ``recent`` copies each record's last ``RECENT_BEATS`` kept
    intervals and their times into two ``(len(records), RECENT_BEATS)``
    arrays (copies, so that no view keeps a whole record alive), then takes
    mean, min, max and both band powers of all rows at once, with one
    :func:`band_power` call; ``baseline11`` makes one call per record.
    """
    blocks = {family: np.empty((len(records), len(feature_names(family)))) for family in _families(feature_set)}
    recent, panel = blocks.get(FEATURE_SET_RECENT), blocks.get(FEATURE_SET_BASELINE11)
    if recent is not None:
        k = RECENT_BEATS
        window_ms, window_s = np.empty((len(records), k)), np.empty((len(records), k))
    for i, record in enumerate(records):
        raw = record.intervals_ms
        try:
            mask = detect_ectopic(raw)
            kept = ~mask
            filtered = raw[kept]
            times_s = (np.cumsum(raw) / 1000.0)[kept]  # kept beats at their own times
            if recent is not None:
                if filtered.size < k:
                    raise FeatureError(f"need at least {k} beats for recent-beat statistics")
                window_ms[i], window_s[i] = filtered[-k:], times_s[-k:]
                recent[i, len(RECENT_NAMES):] = windowed_diff(raw, mask)
            if panel is not None:
                panel[i] = baseline11(filtered, times_s)
        except FeatureError as exc:
            raise FeatureError(f"record {record.record_id!r}: {exc}") from None
    if recent is not None:
        recent[:, 0] = window_ms.mean(axis=1)
        recent[:, 1:3] = band_power(window_s, window_ms, (LF_BAND, HF_BAND))
        recent[:, 3] = window_ms.min(axis=1)
        recent[:, 4] = window_ms.max(axis=1)
    X = np.concatenate(list(blocks.values()), axis=1)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, column = bad[0]
        name = sum(map(feature_names, blocks), ())[column]
        raise FeatureError(f"record {records[row].record_id!r}: non-finite value for feature {name!r}")
    return X


@dataclass(frozen=True, eq=False)
class Cohort:
    """A record set under its feature families: one row per record, in record order.

    ``X`` holds the raw (unstandardized) features, ``families``' columns in
    turn; standardizers are fitted per fold on training rows.  Unknown
    metadata is encoded in place: ``y_nyhac`` is -1, ``bmi_mask`` is False
    (``bmi`` then holds 0), and an unknown birth decade gets the embedding's last row.
    """

    X: np.ndarray                  # (n, f) raw feature values
    names: tuple[str, ...]         # f column names
    record_ids: tuple[str, ...]
    patient_ids: tuple[str, ...]
    y_vta: np.ndarray              # (n,) int, 1 = event class
    decade_index: np.ndarray       # (n,) int embedding row
    num_decades: int               # known decades in the vocabulary (at least 1)
    y_nyhac: np.ndarray            # (n,) int in {-1 (missing), 0..3}
    bmi: np.ndarray                # (n,) float kg/m^2, 0 where missing
    bmi_mask: np.ndarray           # (n,) bool
    families: tuple[str, ...] = ()  # the feature families whose columns X holds, in order

    def __post_init__(self):
        n = len(self.record_ids)
        per_row = (self.patient_ids, self.y_vta, self.decade_index, self.y_nyhac, self.bmi, self.bmi_mask)
        if self.X.shape != (n, len(self.names)) or any(len(column) != n for column in per_row):
            raise FeatureError("cohort arrays must be aligned: one row per record, one column per name")
        if self.families and tuple(self.names) != sum(map(feature_names, self.families), ()):
            raise FeatureError(f"the families {self.families} do not name the {len(self.names)} columns of X")

    def __len__(self) -> int:
        return len(self.record_ids)

    def family(self, feature_set: str) -> Cohort:
        """This cohort with only the columns of the family ``feature_set`` (a view of ``X``) and the same targets."""
        if feature_set not in self.families:
            raise FeatureError(f"the cohort holds no family {feature_set!r}, only {self.families}")
        start = len(sum(map(feature_names, self.families[:self.families.index(feature_set)]), ()))
        span = slice(start, start + len(feature_names(feature_set)))
        return replace(self, X=self.X[:, span], names=self.names[span], families=(feature_set,))


def build_cohort(records, patients, feature_set: str | Sequence[str] = FEATURE_SET_RECENT) -> Cohort:
    """Extract every record's features once (one family or a sequence of them) and gather its targets into arrays.

    The birth-decade vocabulary is every known decade in ``patients``, so the
    embedding width does not depend on which records survive ingestion.
    """
    families = _families(feature_set)
    X = extract(records, families)
    vocab = sorted({p.birth_decade for p in patients.values() if p.birth_decade is not None})
    vocab_index = {decade: i for i, decade in enumerate(vocab)}
    num_decades = max(len(vocab), 1)  # also the index of an unknown decade
    metas = [patients[rec.patient_id] for rec in records]
    return Cohort(
        X=X,
        names=sum(map(feature_names, families), ()),
        record_ids=tuple(rec.record_id for rec in records),
        patient_ids=tuple(rec.patient_id for rec in records),
        y_vta=np.array([LABELS.index(rec.label) for rec in records], dtype=int),
        decade_index=np.array([vocab_index.get(m.birth_decade, num_decades) for m in metas], dtype=int),
        num_decades=num_decades,
        y_nyhac=np.array([-1 if m.nyhac is None else m.nyhac - 1 for m in metas], dtype=int),
        bmi=np.array([0.0 if m.bmi is None else m.bmi for m in metas], dtype=float),
        bmi_mask=np.array([m.bmi is not None for m in metas], dtype=bool),
        families=families,
    )


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature min-max ranges fitted on training data only."""

    minima: np.ndarray
    maxima: np.ndarray


def fit_standardizer(values) -> Standardizer:
    """Fit per-feature minima/maxima from an (n, f) array (1-D means one feature)."""
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if matrix.size == 0:
        raise FeatureError("cannot fit a standardizer on an empty collection")
    return Standardizer(matrix.min(axis=0), matrix.max(axis=0))


def standardize(standardizer: Standardizer, values) -> np.ndarray:
    """Map values into [0, 1] by the fitted ranges, clamping out-of-range input.

    ``values`` is one row or an (n, f) array of rows.  A degenerate feature
    (min == max on the training data) maps to 0.5.
    """
    x = np.asarray(values, dtype=float)
    span = standardizer.maxima - standardizer.minima
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = (x - standardizer.minima) / safe_span
    scaled = np.where(degenerate, 0.5, scaled)
    return np.clip(scaled, 0.0, 1.0)


def write_feature_matrix(path, cohort: Cohort) -> None:
    """Write features as CSV: ``record_id,label,<names>``, 6 significant digits."""
    if not len(cohort):
        raise FeatureError("nothing to write")
    rows = zip(cohort.record_ids, cohort.y_vta, cohort.X)
    write_csv(path, ["record_id", "label", *cohort.names],
              ([rid, LABELS[y], *(f"{v:.6g}" for v in row)] for rid, y, row in rows))
