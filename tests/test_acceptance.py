"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
fails the suite on any violation. The statistical criteria run on fixed seeds,
so their outcomes are deterministic.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from inkfatigue.cli import main
from inkfatigue.features import (
    entropy,
    extract_features,
    normalized_time_up,
    stroke_counts,
    time_down,
    time_in_air,
)
from inkfatigue.model import SetId, TASK_IDS, StudyCorpus, parse_task_file, serialize_task
from inkfatigue.protocol import canonical_set_pairs, jump_height, power_output
from inkfatigue.reporting import (
    load_matrix_tsv,
    mask_to_tsv,
    matrix_to_markdown,
    matrix_to_tsv,
)
from inkfatigue.stats import build_matrix, wilcoxon_signed_rank
from inkfatigue.synth import Perturbation, SynthProfile, generate_corpus, generate_task

from conftest import random_record
from oracles import enumerate_signed_rank_p, histogram_entropy, naive_ranks, scan_segments

DATA = Path(__file__).parent / "data"

#: The 29-row published comparison layout used by the statistical criteria.
REFERENCE_ROWS = [
    (1, "std_speed"), (1, "std_acceleration"), (1, "p_band_100_600"),
    (1, "mean_abs_ddp"), (1, "max_speed"), (1, "max_acceleration"),
    (1, "normalized_time_up"), (1, "time_in_air"), (1, "time_down"),
    (2, "mean_abs_ddp"), (2, "p_gt_100"), (2, "p_band_100_600"),
    (2, "time_in_air"), (2, "time_down"), (2, "normalized_time_up"),
    (6, "entropy_y"), (6, "time_in_air"),
    (8, "normalized_time_up"), (8, "max_speed"),
    (3, "std_speed"), (3, "entropy_x"), (3, "p_band_100_400"), (3, "mean_abs_ddp"),
    (5, "time_down"), (5, "max_acceleration"),
    (9, "p_gt_600"), (9, "std_acceleration"), (9, "mean_abs_ddp"), (9, "time_in_air"),
]


def _gate(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_stroke_and_timing_oracle_exhaustive():
    """All binary pressure patterns of length <= 10 match the naive
    segment-scanning oracle exactly; runtime under 1 second."""
    start = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        for bits in itertools.product((0, 500), repeat=n):
            want = scan_segments(bits)
            if stroke_counts(bits) != (want["strokes_down"], want["strokes_up"]):
                _gate("stroke-timing-oracle", False, f"stroke_counts({bits})")
            if time_in_air(bits) != want["time_in_air"]:
                _gate("stroke-timing-oracle", False, f"time_in_air({bits})")
            if time_down(bits) != want["time_down"]:
                _gate("stroke-timing-oracle", False, f"time_down({bits})")
            if normalized_time_up(bits) != want["normalized_time_up"]:
                _gate("stroke-timing-oracle", False, f"normalized_time_up({bits})")
            checked += 1
    elapsed = time.perf_counter() - start
    _gate(
        "stroke-timing-oracle",
        elapsed < 1.0,
        f"{checked} patterns in {elapsed:.2f}s",
    )


def test_entropy_identities():
    ok = entropy([7] * 64, 8) == 0.0
    detail = []
    for k in (2, 4, 8, 16):
        series = list(range(k)) * 37  # equiprobable symbols
        err = abs(entropy(series, k) - math.log2(k))
        ok = ok and err <= 1e-12
        detail.append(f"k={k} err={err:.1e}")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        alphabet = int(rng.integers(2, 2048))
        series = rng.integers(0, alphabet, size=int(rng.integers(1, 400)))
        worst = max(worst, abs(entropy(series, alphabet) - histogram_entropy(series.tolist())))
    ok = ok and worst <= 1e-12
    _gate("entropy-identities", ok, f"{'; '.join(detail)}; oracle worst={worst:.1e}")


def test_wilcoxon_exactness_exhaustive():
    """Every sign pattern over distinct magnitudes for n <= 10 matches literal
    enumeration to 1e-12; the n=5 all-positive case is exactly 0.0625."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(1, 11):
        magnitudes = [1.0 + 0.43 * k + 0.017 * k * k for k in range(n)]
        ranks = naive_ranks(magnitudes)
        # literal enumeration of all 2^n sign assignments, done once per n
        assignments = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.float64)
        w_all = np.sort(assignments @ np.asarray(ranks))
        total = float(2**n)
        m = sum(ranks)
        for signs in itertools.product((1, -1), repeat=n):
            d = [s * mag for s, mag in zip(signs, magnitudes)]
            got = wilcoxon_signed_rank([(x, 0.0) for x in d]).p
            w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
            hi = max(w_obs, m - w_obs)
            lo = m - hi
            n_hi = len(w_all) - np.searchsorted(w_all, hi - 1e-9, side="left")
            n_lo = np.searchsorted(w_all, lo + 1e-9, side="right")
            want = min(1.0, (n_hi + n_lo) / total)
            worst = max(worst, abs(got - want))
            cases += 1
    exact_5 = wilcoxon_signed_rank([(float(i), 0.0) for i in range(1, 6)]).p
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and exact_5 == 0.0625 and elapsed < 10.0
    _gate(
        "wilcoxon-exactness",
        ok,
        f"{cases} cases, worst={worst:.1e}, n5 p={exact_5}, {elapsed:.1f}s",
    )


def test_wilcoxon_exactness_spot_check_against_slow_oracle(rng):
    # The vectorized enumeration above and this per-case brute force agree.
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = rng.normal(size=n)
        got = wilcoxon_signed_rank([(x, 0.0) for x in d]).p
        assert got == pytest.approx(enumerate_signed_rank_p(list(d)), abs=1e-12)


@pytest.mark.slow
def test_null_calibration_within_binomial_window():
    """100 null corpora (20 subjects, no perturbations): the rate of p < 0.05
    over all cells of the 29-row x 10-pair matrix stays inside the 99%
    binomial window around 0.05."""
    pairs = canonical_set_pairs()
    significant = 0
    total = 0
    for seed in range(100):
        corpus = generate_corpus(SynthProfile(seed=seed, n_subjects=20))
        matrix = build_matrix(corpus, REFERENCE_ROWS, pairs)
        for row_cells in matrix.cells:
            for cell in row_cells:
                total += 1
                significant += cell.p < 0.05
    rate = significant / total
    half_width = 2.5758293035489004 * math.sqrt(0.05 * 0.95 / total)
    low, high = 0.05 - half_width, 0.05 + half_width
    _gate(
        "null-calibration",
        low <= rate <= high,
        f"rate={rate:.5f} over {total} cells, window=[{low:.5f}, {high:.5f}]",
    )


@pytest.mark.slow
def test_power_and_specificity_of_injected_s4_effect():
    """S4-only perturbation (speed_scale 0.7, air_inflation 1.5): every
    affected (task, feature) S1-S4 cell is significant in >= 95% of 200
    seeds while S1-S2 stays at calibration level; runtime < 5 minutes."""
    start = time.perf_counter()
    affected = ("mean_speed", "std_speed", "max_speed", "time_in_air", "normalized_time_up")
    rows = [(task, feature) for task in TASK_IDS for feature in affected]
    pairs = [(SetId.S1, SetId.S2), (SetId.S1, SetId.S4)]
    sets = (SetId.S1, SetId.S2, SetId.S4)
    n_seeds = 200
    s12_hits = {row: 0 for row in rows}
    s14_hits = {row: 0 for row in rows}
    for seed in range(n_seeds):
        profile = SynthProfile(
            seed=seed,
            perturbations={SetId.S4: Perturbation(speed_scale=0.7, air_inflation=1.5)},
        )
        corpus = StudyCorpus()
        for subject in profile.subject_ids():
            for set_id in sets:
                for task in TASK_IDS:
                    corpus.add(generate_task(profile, subject, set_id, task))
        matrix = build_matrix(corpus, rows, pairs)
        for row, cells in zip(matrix.rows, matrix.cells):
            key = (row.task, row.feature)
            s12_hits[key] += cells[0].p < 0.05
            s14_hits[key] += cells[1].p < 0.05
    elapsed = time.perf_counter() - start

    min_power = min(s14_hits.values()) / n_seeds
    pooled_s12 = sum(s12_hits.values()) / (len(rows) * n_seeds)
    max_s12 = max(s12_hits.values()) / n_seeds
    # Specificity bounds: pooled false-positive rate near nominal (upper guard
    # 0.08 ~ 0.05 + 4 pooled-binomial sd; per-cell guard 0.125 ~ 99.99%
    # binomial upper bound at n=200 with headroom for cross-cell dependence),
    # plus a sanity floor against a degenerate always-accept test.
    ok = (
        min_power >= 0.95
        and pooled_s12 <= 0.08
        and pooled_s12 >= 0.01
        and max_s12 <= 0.125
        and elapsed < 300.0
    )
    _gate(
        "power-and-specificity",
        ok,
        f"min S1-S4 power={min_power:.3f}, pooled S1-S2 rate={pooled_s12:.4f}, "
        f"max cell S1-S2 rate={max_s12:.3f}, {elapsed:.0f}s",
    )


def test_physiological_formulas():
    h_err = abs(jump_height(0.5) - 0.3065625)  # 9.81 * 0.25 / 8, by hand
    p_err = abs(power_output(700.0, 1.5) - 1050.0)
    _gate(
        "physiological-formulas",
        h_err <= 1e-9 and p_err <= 1e-9,
        f"|dh|={h_err:.1e}, |dP|={p_err:.1e}",
    )


def test_reference_matrix_layout_and_bold_pattern():
    """The published 29-row matrix renders in its table layout and masking at
    0.05 reproduces the frozen bold-cell pattern cell for cell."""
    matrix = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    ok = len(matrix.rows) == 29 and matrix.pairs == tuple(canonical_set_pairs())
    ok = ok and matrix.alpha == 0.05

    tsv_lines = matrix_to_tsv(matrix).splitlines()
    ok = ok and len(tsv_lines) == 30
    ok = ok and tsv_lines[0].split("\t")[3:] == [
        "S1-S2", "S1-S3", "S1-S4", "S1-S5", "S2-S3",
        "S2-S4", "S2-S5", "S3-S4", "S3-S5", "S4-S5",
    ]

    expected_lines = (DATA / "reference_mask.tsv").read_text().splitlines()[1:]
    expected = [line.split("\t")[3:] for line in expected_lines]
    got = [
        ["true" if flag else "false" for flag in row]
        for row in matrix.mask()
    ]
    mismatches = sum(
        a != b for exp_row, got_row in zip(expected, got) for a, b in zip(exp_row, got_row)
    )
    ok = ok and mismatches == 0

    markdown = matrix_to_markdown(matrix)
    bold_cells = markdown.count("**") // 2
    expected_bold = sum(row.count("true") for row in expected)
    ok = ok and bold_cells == expected_bold
    _gate(
        "reference-table-rendering",
        ok,
        f"mask mismatches={mismatches}, bold cells={bold_cells} (expected {expected_bold})",
    )


def test_round_trip_thousand_records():
    rng = np.random.default_rng(424242)
    failures = 0
    for _ in range(1000):
        record = random_record(rng)
        if parse_task_file(serialize_task(record)) != record:
            failures += 1
    _gate("serializer-round-trip", failures == 0, f"{failures} failures out of 1000")


def test_end_to_end_determinism(tmp_path):
    """synth -> extract -> compare run twice from one profile produces
    byte-identical output trees."""
    profile = tmp_path / "profile.cfg"
    profile.write_text(
        "seed = 9\nn_subjects = 3\n"
        "set.S4.speed_scale = 0.8\nset.S4.air_inflation = 1.2\n"
    )

    def run(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        corpus = base / "corpus"
        assert main(["synth", "--profile", str(profile), "--out", str(corpus)]) == 0
        assert main(["extract", "--corpus", str(corpus), "--out", str(base / "features")]) == 0
        assert main(["compare", "--corpus", str(corpus), "--out", str(base / "matrix")]) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    first = run("run1")
    second = run("run2")
    identical = first == second
    _gate(
        "end-to-end-determinism",
        identical,
        f"{len(first)} files compared",
    )
