"""Independent brute-force oracles used to check the production code.

Everything here is deliberately naive: plain-Python loops, dict counting,
O(n^2) ranking and literal enumeration. None of it shares code with the
package under test, except ``reference_generate_task``: it keeps the
per-stroke form of the synthetic-ink generator and reuses the generator's
key streams, subject traits and shape constants.
"""

import itertools
import math

import numpy as np

from inkfatigue.errors import ConfigError
from inkfatigue.model import PRESSURE_MAX, TASK_IDS, InkSignal, TaskRecord
from inkfatigue.synth import (
    _CURVATURE_SD,
    _EXTRA_STROKES,
    _HEADING_STEP_SD,
    _PRESSURE_NOISE_SD,
    _SAMPLE_SPEED_SD,
    _STROKE_LEN_RANGE,
    _STROKE_SPEED_SD,
    _stream,
    _subject_traits,
)


def scan_segments(pressure):
    """Segment-scanning reference for stroke and timing features.

    Walks the pressure series once, tracking maximal runs of pen-down
    (pressure > 0) and in-air (pressure == 0) samples.
    """
    down_segments = 0
    up_segments = 0
    air = 0
    down = 0
    prev_state = None
    for value in pressure:
        state = "down" if value > 0 else "up"
        if value > 0:
            down += 1
        else:
            air += 1
        if state != prev_state:
            if state == "down":
                down_segments += 1
            else:
                up_segments += 1
            prev_state = state
    if up_segments == 0:
        ntu = 0.0
        flagged = True
    else:
        ntu = air / up_segments
        flagged = False
    return {
        "strokes_down": down_segments,
        "strokes_up": up_segments,
        "time_in_air": air,
        "time_down": down,
        "normalized_time_up": ntu,
        "flagged": flagged,
    }


def histogram_entropy(series):
    """Dict-counting Shannon entropy in bits."""
    counts = {}
    for value in series:
        counts[value] = counts.get(value, 0) + 1
    n = len(series)
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def naive_ranks(values):
    """Midranks by pairwise counting, O(n^2)."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def enumerate_signed_rank_p(diffs, alternative="two-sided"):
    """Exact signed-rank p-value by literal enumeration of sign assignments.

    Zero differences are dropped first. The two-sided p counts assignments at
    least as extreme in either direction: W' >= max(W, M - W) or
    W' <= min(W, M - W), with M the total rank sum.
    """
    d = [x for x in diffs if x != 0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = naive_ranks([abs(x) for x in d])
    w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
    m = sum(ranks)
    eps = 1e-9
    count = 0
    total = 0
    for signs in itertools.product((False, True), repeat=n):
        w = sum(r for r, positive in zip(ranks, signs) if positive)
        total += 1
        if alternative == "greater":
            count += w >= w_obs - eps
        elif alternative == "less":
            count += w <= w_obs + eps
        else:
            hi = max(w_obs, m - w_obs)
            lo = m - hi
            count += (w >= hi - eps) or (w <= lo + eps)
    return min(1.0, count / total)


def reference_generate_task(profile, subject_id, set_id, task):
    """Per-stroke form of ``synth.generate_task``: one Python iteration and
    separate draws per stroke. The production generator must match it bit
    for bit."""
    if task not in TASK_IDS:
        raise ConfigError(f"task must be in 1..9, got {task}")
    traits = _subject_traits(profile.seed, subject_id)
    pert = profile.perturbation(set_id)
    rng = _stream(profile.seed, "record", subject_id, set_id.value, task)

    # Stage 1: structure. Raw integer draws; perturbations applied afterwards
    # so identical keys give identical draws whatever the parameters are.
    n_strokes = int(profile.stroke_count + rng.integers(0, _EXTRA_STROKES))
    stroke_len = rng.integers(_STROKE_LEN_RANGE[0], _STROKE_LEN_RANGE[1] + 1, size=n_strokes)
    gap_lo = max(1, profile.air_gap_len // 4)
    gap_hi = max(gap_lo + 1, 2 * profile.air_gap_len - gap_lo)
    raw_gaps = rng.integers(gap_lo, gap_hi + 1, size=max(n_strokes - 1, 0))
    gaps = np.maximum(1, np.rint(raw_gaps * pert.air_inflation).astype(np.int64))

    # Stage 2: trajectory draws.
    headings0 = rng.uniform(0.0, 2.0 * math.pi, size=n_strokes)
    curvature = rng.normal(0.0, _CURVATURE_SD, size=n_strokes)
    stroke_speed_mult = np.exp(rng.normal(0.0, _STROKE_SPEED_SD, size=n_strokes))
    heading_noise = [rng.standard_normal(int(L)) for L in stroke_len]
    speed_noise = [rng.standard_normal(int(L)) for L in stroke_len]
    jump_angle = rng.uniform(0.0, 2.0 * math.pi, size=max(n_strokes - 1, 0))
    jump_spread = rng.uniform(0.3, 0.8, size=max(n_strokes - 1, 0))

    # Stage 3: pressure noise, one value per pen-down sample.
    pressure_noise = [rng.standard_normal(int(L)) for L in stroke_len]

    base_v = profile.base_speed * traits.tempo * pert.speed_scale
    x_parts: list[np.ndarray] = []
    y_parts: list[np.ndarray] = []
    p_parts: list[np.ndarray] = []
    pos_x, pos_y = float(traits.origin_x), float(traits.origin_y)

    for i in range(n_strokes):
        L = int(stroke_len[i])
        theta = headings0[i] + np.cumsum(
            curvature[i] + _HEADING_STEP_SD * heading_noise[i]
        )
        v = base_v * traits.amp_scale * stroke_speed_mult[i] * np.exp(
            _SAMPLE_SPEED_SD * speed_noise[i]
        )
        dx = v * np.cos(theta)
        dy = v * np.sin(theta)
        sx = pos_x + np.cumsum(dx)
        sy = pos_y + np.cumsum(dy)
        x_parts.append(sx)
        y_parts.append(sy)
        pos_x, pos_y = float(sx[-1]), float(sy[-1])

        # Pressure rises and falls within the stroke; clamp keeps pen-down
        # samples strictly positive so perturbing pressure never edits timing.
        arc = np.sin(math.pi * (np.arange(L) + 0.5) / L)
        level = profile.base_pressure_level * traits.pressure_scale
        p_raw = np.rint(level * arc * np.exp(_PRESSURE_NOISE_SD * pressure_noise[i]))
        p_parts.append(np.clip(p_raw + pert.pressure_shift, 1, PRESSURE_MAX))

        if i < n_strokes - 1:
            gap = int(gaps[i])
            jump = base_v * traits.amp_scale * float(gaps[i]) * jump_spread[i]
            target_x = pos_x + jump * math.cos(jump_angle[i])
            target_y = pos_y + jump * math.sin(jump_angle[i])
            # Gap samples sit strictly between the stroke end and next start.
            frac = np.arange(1, gap + 1) / (gap + 1)
            x_parts.append(pos_x + (target_x - pos_x) * frac)
            y_parts.append(pos_y + (target_y - pos_y) * frac)
            p_parts.append(np.zeros(gap))
            pos_x, pos_y = target_x, target_y

    x = np.concatenate(x_parts)
    y = np.concatenate(y_parts)
    p = np.concatenate(p_parts)

    # Stage 4: positional jitter, drawn last because its size depends on the
    # (inflation-dependent) record length.
    if pert.jitter_sd > 0:
        jitter = rng.standard_normal((2, x.size))
        x = x + pert.jitter_sd * jitter[0]
        y = y + pert.jitter_sd * jitter[1]

    signal = InkSignal(
        x=np.rint(x).astype(np.int64),
        y=np.rint(y).astype(np.int64),
        pressure=p.astype(np.int64),
        azimuth=np.full(x.size, traits.azimuth, dtype=np.int64),
        altitude=np.full(x.size, traits.altitude, dtype=np.int64),
    )
    return TaskRecord(
        subject_id=subject_id,
        set_id=set_id,
        task=task,
        signal=signal,
        metadata={"generator": "synthetic"},
    )
