import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revreact.entropy import ck_gap, dissipation
from revreact.grid import Grid1D, integrate
from revreact.ineqlab import (
    CHUNK,
    _admissible_stack,
    _positive_shape,
    _PresetSeed,
    _sampled_report,
    _seed_words,
    default_floor,
    duality_margin,
    elementary_inequality_gap,
    estimate_eed_constant,
    estimate_k2_split,
    homogeneous_ratio,
    mu_c_max,
    sample_admissible,
    scan_homogeneous_ratio,
    trajectory_eed_constant,
    verify_csiszar_kullback,
)
from revreact.model import (
    MassPair,
    ReactionParams,
    compute_equilibrium,
    stoich_pow,
    uv_totals,
    weighted_masses,
)
from revreact.solver import State, StepConfig, run

P111 = ReactionParams(1, 1, 1)
M22 = MassPair(2, 2)


class TestHomogeneousScan:
    CONFIGS = [
        (ReactionParams(1, 1, 1), MassPair(3, 2)),
        (ReactionParams(2, 1, 1), MassPair(2, 1)),
        (ReactionParams(1, 2, 3), MassPair(4, 3)),
        (ReactionParams(2, 2, 3), MassPair(5, 4)),
    ]

    def test_symmetric_range(self):
        eq = compute_equilibrium(P111, M22)
        assert mu_c_max(P111, eq) == pytest.approx(math.sqrt(2) - 1, rel=1e-14)

    def test_endpoint_ratios_by_hand(self):
        # mu_c = -1: a = b = sqrt(2), c = 0; mu_c = sqrt(2)-1: a = b = 0, c = sqrt(2)
        eq = compute_equilibrium(P111, M22)
        lo, hi = homogeneous_ratio(P111, eq, np.array([-1.0, math.sqrt(2) - 1]))
        assert lo == pytest.approx((2 * (math.sqrt(2) - 1) ** 2 + 1) / 4, rel=1e-12)
        assert hi == pytest.approx((2 + (math.sqrt(2) - 1) ** 2) / 2, rel=1e-12)

    def test_zero_limit_by_expansion(self):
        # with R1(0) = R2(0) = 1 the ratio tends to 3 mu^2 / 9 mu^2 = 1/3
        rep = scan_homogeneous_ratio(P111, M22, 501)
        assert rep.zero_limit == pytest.approx(1 / 3, abs=1e-3)

    def test_finite_positive_sup_across_configs(self):
        for p, m in self.CONFIGS:
            rep = scan_homogeneous_ratio(p, m, 501)
            assert math.isfinite(rep.constant_estimate)
            assert rep.constant_estimate > 0
            assert rep.min_ratio <= rep.max_ratio

    def test_n_grid_floor(self):
        with pytest.raises(ValueError, match=re.escape("n_grid must be >= 100, got 99")):
            scan_homogeneous_ratio(P111, M22, 99)
        for n_grid in (150.5, 2001.0):
            message = f"n_grid must be an integer, got {n_grid}"
            with pytest.raises(TypeError, match=re.escape(message)):
                scan_homogeneous_ratio(P111, M22, n_grid)
        rep = scan_homogeneous_ratio(P111, M22, np.int64(150))
        assert rep == scan_homogeneous_ratio(P111, M22, 150)


class TestSampler:
    def test_deterministic_and_conserving(self):
        g = Grid1D(64)
        s1 = sample_admissible(P111, M22, g, seed=42)
        s2 = sample_admissible(P111, M22, g, seed=42)
        np.testing.assert_array_equal(s1.u, s2.u)
        np.testing.assert_array_equal(s1.w, s2.w)
        m1 = integrate(s1.u) + integrate(s1.w)
        m2 = integrate(s1.v) + integrate(s1.w)
        assert abs(m1 - 2) <= 1e-13 * 2
        assert abs(m2 - 2) <= 1e-13 * 2

    def test_two_cell_grid(self):
        g = Grid1D(2)
        s = sample_admissible(P111, M22, g, seed=0)
        assert s.u.shape == (2,)
        assert min(s.u.min(), s.v.min(), s.w.min()) >= default_floor(M22)

    def test_mass_error_over_many_samples(self):
        g = Grid1D(32)
        p = ReactionParams(2, 1, 3)
        m = MassPair(4, 3)
        worst = 0.0
        for i in range(200):
            s = sample_admissible(p, m, g, seed=[5, i])
            e1 = abs(p.gamma * integrate(s.u) + p.alpha * integrate(s.w) - m.m1)
            e2 = abs(p.gamma * integrate(s.v) + p.beta * integrate(s.w) - m.m2)
            worst = max(worst, e1 / m.m1, e2 / m.m2)
        assert worst < 1e-12

    def test_floor_respected(self):
        g = Grid1D(50)
        s = sample_admissible(P111, M22, g, seed=3)
        assert min(s.u.min(), s.v.min(), s.w.min()) >= default_floor(M22)

    def test_infeasible_floor(self):
        # the equilibrium exists, but m1/alpha leaves w no room above the floor
        p = ReactionParams(2e6, 1, 1)
        compute_equilibrium(p, M22)
        with pytest.raises(ValueError, match=re.escape(
            "m1=2, m2=2 with alpha=2000000.0, beta=1, gamma=1 leave no room for w"
        )):
            sample_admissible(p, M22, Grid1D(16), seed=0)

    def test_sample_is_a_state_at_t_zero_equal_to_its_stack_row(self):
        p, m, g = ReactionParams(1, 2, 3), MassPair(4, 3), Grid1D(24)
        s = sample_admissible(p, m, g, [7, 3])
        assert type(s) is State
        assert s.t == 0.0
        np.testing.assert_array_equal(s.y, _admissible_stack(p, m, g, [[7, 3]]).y[0])


    def test_seed_may_be_a_list_or_its_seed_sequence(self):
        p, m, g = ReactionParams(1, 2, 3), MassPair(4, 3), Grid1D(64)
        listed = sample_admissible(p, m, g, [7, 3]).y
        sequenced = sample_admissible(p, m, g, np.random.SeedSequence([7, 3])).y
        assert listed.tobytes() == sequenced.tobytes()

    def test_int_seed_gives_pinned_bytes(self):
        y = sample_admissible(ReactionParams(1, 2, 3), MassPair(4, 3), Grid1D(64), 7).y
        assert hashlib.sha256(y.tobytes()).hexdigest() == (
            "bf584cc0607cb1171538dd8d890c1fce73e976650d8631594c167f9ce42a7bcd"
        )


def _drawn_the_old_way(p, m, g, seed, seen):
    """One admissible sample drawn with the plainest calls of the stream contract.

    default_rng(seed) gives w's mass fraction, then the w, u and v shapes,
    each as kind, uniform cells, then the window's two ends (kind 1) or the
    exponential cells (kind 2).  seen collects the kinds drawn, and a kind-1
    window as (1, whether its two ends came out descending).
    """
    n = g.n_cells
    rng = np.random.default_rng(seed)
    frac = rng.uniform(0.02, 0.95)
    shapes = {}
    for j in (2, 0, 1):
        kind = int(rng.integers(0, 3))
        shape = rng.uniform(0.0, 1.0, n)
        seen.add(kind)
        if kind == 1:
            ends = rng.integers(0, n, 2)
            seen.add((1, bool(ends[0] > ends[1])))
            i0, i1 = np.sort(ends)
            shape[i0:i1] = 0.0
        elif kind == 2:
            shape = rng.exponential(1.0, n)
        if shape.sum() <= 0.0:
            shape[rng.integers(0, n)] = 1.0
        shapes[j] = shape
    delta = default_floor(m)
    bound = min(m.m1 / p.alpha, m.m2 / p.beta) - p.gamma * delta
    w_mass = delta + frac * (bound - delta)
    w = delta + shapes[2] * (w_mass - delta) / shapes[2].mean()
    uv_means = uv_totals(p, np.array([m.m1, m.m2]), integrate(w))
    u, v = (delta + shapes[j] * (uv_means[j] - delta) / shapes[j].mean() for j in (0, 1))
    return np.stack([u, v, w])


class TestSamplerStream:
    """The sampler's bits: sample i of seed s comes from default_rng([s, i])."""

    P, M = ReactionParams(1, 2, 3), MassPair(4, 3)
    SEEDS = [[2024, i] for i in range(300)]
    # sha256 of the stacked fields: 64 cells recorded before the shapes were drawn
    # in place, 2 cells at the commit before the sampler lost its floor argument
    STACK_SHA256 = {
        64: "1e5c25e75f7e3787e3506978a80060ac33e44e17f5c8974b32fff3d840732dd8",
        2: "b458f840864afd2412b6eefb60177452927effe1a84c00cf00c00aec397751cf",
    }

    @pytest.mark.parametrize("n_cells", STACK_SHA256)
    def test_stack_digest_is_pinned(self, n_cells):
        y = _admissible_stack(self.P, self.M, Grid1D(n_cells), self.SEEDS).y
        digest = hashlib.sha256(y.tobytes()).hexdigest()
        assert digest == self.STACK_SHA256[n_cells]

    def test_rows_equal_the_plain_draws_byte_for_byte(self):
        g, seen = Grid1D(64), set()
        seeds = self.SEEDS[:4]
        stack = _admissible_stack(self.P, self.M, g, seeds).y
        for k, seed in enumerate(seeds):
            assert stack[k].tobytes() == _drawn_the_old_way(self.P, self.M, g, seed, seen).tobytes()
        assert {0, 1, 2, (1, True)} <= seen  # every kind, and a window drawn descending

    def test_mass_fraction_is_uniforms_map_of_one_double(self):
        # the sampler draws w's mass fraction with random() and maps it as uniform(0.02, 0.95) does
        for seed in self.SEEDS:
            mapped, plain = np.random.default_rng(seed), np.random.default_rng(seed)
            assert 0.02 + (0.95 - 0.02) * mapped.random() == plain.uniform(0.02, 0.95)
            assert mapped.bit_generator.state == plain.bit_generator.state
        mapped = 0.02 + (0.95 - 0.02) * np.random.default_rng(self.SEEDS[0]).random(10**6)
        plain = np.random.default_rng(self.SEEDS[0]).uniform(0.02, 0.95, 10**6)
        assert mapped.tobytes() == plain.tobytes()


class _ScriptedRng:
    """Answers _positive_shape's calls from a script and records its integers() calls."""

    def __init__(self, ints, cells):
        self.ints, self.cells, self.calls = list(ints), np.asarray(cells, dtype=float), []

    def integers(self, lo, hi):
        self.calls.append((lo, hi))
        return self.ints.pop(0)

    def random(self, out):
        out[:] = self.cells

    def standard_exponential(self, out):
        out[:] = self.cells


class TestPositiveShapeGuard:
    """The positive-mean fix draws one more cell only when every cell is 0.0."""

    @pytest.mark.parametrize("kind", [0, 2])  # the zeros come from random() or the exponentials
    def test_all_zero_shape_gets_one_unit_cell(self, kind):
        rng, shape = _ScriptedRng([kind, 2], np.zeros(5)), np.empty(5)
        _positive_shape(rng, shape)
        assert rng.calls == [(0, 3), (0, 5)]
        assert shape.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_zero_last_cell_with_a_live_cell_is_left_alone(self):
        cells = [0.0, 0.5, 0.0, 0.0, 0.0]
        rng, shape = _ScriptedRng([0], cells), np.empty(5)
        _positive_shape(rng, shape)
        assert rng.calls == [(0, 3)]
        assert shape.tolist() == cells


class TestSeedWords:
    """_sampled_report seeds sample i with the PCG64 state SeedSequence([seed, i]) gives."""

    P, M, G = ReactionParams(1, 2, 3), MassPair(4, 3), Grid1D(64)
    # seeds of 1 to 7 words, with the edges of one word (2**32 - 1) and of two (2**32)
    SEEDS = [0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1, 2**200]
    # sha256 of repr((EED and CK at 1000 samples, K2 at 300)), recorded before the seed words
    REPORT_SHA256 = {
        2024: "4ac8880fa3d318fc1b395b6cb42be5d2b526ffc3602fb7cf4deac979e8bc832d",
        1: "6ba6bc2269188af2076f3c85dd2b78e7cbb86e806c32f13cb04e7b125616467d",
        7: "283febcfc37643d2d0f4b56f040bafef041f836e354217a3b3105177d96ef8e2",
    }

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start,stop", [(CHUNK - 40, CHUNK + 40), (2**32 - 50, 2**32)])
    def test_words_equal_numpy_seed_sequence(self, seed, start, stop):
        words = _seed_words(seed, np.arange(start, stop))
        expected = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                    for i in range(start, stop)]
        assert words.dtype == np.uint64
        assert words.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n_words,dtype", [
        (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.float64),
    ])
    def test_preset_seed_refuses_any_other_request(self, n_words, dtype):
        preset = _PresetSeed(_seed_words(2024, [0])[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            preset.generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [2024, 2**40 + 3])
    def test_reports_draw_the_stacks_of_seed_lists(self, seed):
        n, drawn = 300, []

        def evaluate(s):
            drawn.append(s.y.copy())
            return np.ones(len(s.y)), np.ones(len(s.y), bool), False

        _sampled_report(self.P, self.M, self.G, n, seed, evaluate, min)
        expected = _admissible_stack(self.P, self.M, self.G, [[seed, i] for i in range(n)])
        assert [len(y) for y in drawn] == [CHUNK, CHUNK, n - 2 * CHUNK]
        assert np.concatenate(drawn).tobytes() == expected.y.tobytes()

    @pytest.mark.parametrize("seed", REPORT_SHA256)
    def test_reports_are_pinned(self, seed):
        reports = (
            estimate_eed_constant(self.P, self.M, self.G, 1000, seed=seed),
            verify_csiszar_kullback(self.P, self.M, self.G, 1000, seed=seed),
            estimate_k2_split(self.P, self.M, self.G, 300, k1=1.0, seed=seed),
        )
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == self.REPORT_SHA256[seed]

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
        ({"seed": "3"}, TypeError, "seed and n_samples must be integers: '3', 5"),
        ({"seed": [7, 3]}, TypeError, "seed and n_samples must be integers: [7, 3], 5"),
        ({"seed": 2.0}, TypeError, "seed and n_samples must be integers: 2.0, 5"),
        ({"n_samples": 0}, ValueError, "n_samples must be in [1, 2**32), got 0"),
        ({"n_samples": 2**32}, ValueError, "n_samples must be in [1, 2**32), got 4294967296"),
        ({"n_samples": 5.0}, TypeError, "seed and n_samples must be integers: 0, 5.0"),
    ])
    def test_seed_and_n_samples_are_validated_by_name(self, kwargs, error, message):
        kwargs = {"n_samples": 5, **kwargs}
        for estimate in (estimate_eed_constant, verify_csiszar_kullback):
            with pytest.raises(error, match=re.escape(message)):
                estimate(P111, M22, Grid1D(8), **kwargs)
        with pytest.raises(error, match=re.escape(message)):
            estimate_k2_split(P111, M22, Grid1D(8), k1=1.0, **kwargs)

    def test_integer_likes_are_accepted(self):
        g = Grid1D(8)
        assert estimate_eed_constant(P111, M22, g, np.int64(5), seed=np.int64(3)) == (
            estimate_eed_constant(P111, M22, g, 5, seed=3)
        )


class TestK2Split:
    def test_homogeneous_family_is_covered_by_scan_constant(self):
        # a homogeneous admissible sample has zero variance part, so its
        # lhs/defect ratio must sit below the scanned constant
        p, m = P111, M22
        eq = compute_equilibrium(p, m)
        scan = scan_homogeneous_ratio(p, m, 2001)
        mu = np.linspace(-1.0, mu_c_max(p, eq), 41)
        mu = mu[np.abs(mu) > 1e-6]
        ratios = homogeneous_ratio(p, eq, mu)
        assert ratios.max() <= scan.constant_estimate * (1 + 1e-9)

    def test_generous_k1_needs_no_variance_term(self):
        scan = scan_homogeneous_ratio(P111, M22, 2001)
        rep = estimate_k2_split(P111, M22, Grid1D(48), 100, k1=2 * scan.constant_estimate, seed=7)
        assert rep.constant_estimate >= 0.0
        assert math.isfinite(rep.constant_estimate)
        assert rep.n_uncovered == 0

    def test_small_k1_forces_positive_k2(self):
        rep = estimate_k2_split(P111, M22, Grid1D(48), 100, k1=1e-6, seed=7)
        assert rep.constant_estimate > 0.0
        # the reported constant closes the bound on every sample by construction
        assert rep.min_ratio >= 0.0

    def test_k1_validation(self):
        for k1 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="k1 must be "):
                estimate_k2_split(P111, M22, Grid1D(16), 10, k1=k1)


class TestEed:
    def test_min_ratio_positive(self):
        rep = estimate_eed_constant(P111, M22, Grid1D(48), 100, seed=11)
        assert rep.min_ratio > 0.0
        assert rep.n_samples == 100

    def test_underflowing_samples_raise_instead_of_reporting_nan(self):
        # at m1 = 1e-300 the floored fields underflow and some ratios are NaN
        with pytest.raises(ValueError, match=r"\d+ of 50 samples gave a non-finite ratio"):
            estimate_eed_constant(P111, MassPair(1e-300, 1), Grid1D(64), 50)

    def test_trajectory_variant_positive_on_relaxing_run(self):
        g = Grid1D(64)
        x = g.cell_centers()
        p = ReactionParams(1, 1, 1, d1=1, d2=1, d3=1)
        s0 = State(0.0, 2 * (1 - np.cos(2 * np.pi * x)), np.full_like(x, 2.0), np.zeros_like(x))
        traj = run(p, s0, StepConfig(dt_init=5e-3, t_end=6.0, record_every=10))
        rep = trajectory_eed_constant(traj)
        assert rep.min_ratio > 0.0
        # Gronwall consistency: the fitted decay beats the worst pointwise ratio
        from revreact.cli import fit_rate

        k_fit, _, _ = fit_rate([(r.t, r.E_rel) for r in traj.rows])
        assert k_fit >= 0.9 * rep.min_ratio

    def test_trajectory_at_equilibrium_is_uninformative(self):
        p = ReactionParams(1, 1, 1)
        s0 = State(0.0, np.ones(16), np.ones(16), np.ones(16))
        traj = run(p, s0, StepConfig(dt_init=1e-3, t_end=0.05, record_every=10))
        with pytest.raises(ValueError):
            trajectory_eed_constant(traj)


# sha256 of repr of the reports of the producers no other test pins bit for bit, recorded
# before every producer built its report through _ratio_report; the trajectory's since it
# skips rows with an infinite D
UNSAMPLED_REPORT_SHA256 = {
    "scan n_grid=2001": "804b205bb10eed289dc6dfb47b5c4f7b620bbd3e280d5b1a16448f0761783db4",
    "scan n_grid=150": "710ff79ce31523efe5c2526637b6c4d66eb3b2253a323157969b4ae47ee8acf9",
    "trajectory": "462160228044bcf547f144f25d82b47cb883a2086e8ff32d474af631a1e8256b",
}


@pytest.mark.parametrize("case", UNSAMPLED_REPORT_SHA256)
def test_scan_and_trajectory_reports_are_pinned(case):
    if case == "trajectory":  # the reference run of the acceptance suite, to t = 5
        x = Grid1D(200).cell_centers()
        s0 = State(0.0, 2 * (1 - np.cos(2 * np.pi * x)), np.full_like(x, 2.0), np.zeros_like(x))
        cfg = StepConfig(dt_init=1e-2, dt_min=1e-12, safety=0.2, t_end=5.0, record_every=20)
        p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
        reports = trajectory_eed_constant(run(p, s0, cfg))
        # the t = 0 row, where w = 0 makes D infinite, is skipped, not reported as the max
        assert (reports.n_samples, reports.n_skipped) == (25, 5)
        assert math.isfinite(reports.max_ratio) and reports.argmax["t"] > 0.0
        assert reports.min_ratio == reports.constant_estimate == 6.000001887397873
        assert reports.argmin == {"t": 4.39921874999995}
    else:
        n_grid = int(case.rpartition("=")[2])
        reports = tuple(scan_homogeneous_ratio(p, m, n_grid)
                        for p, m in TestHomogeneousScan.CONFIGS)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == UNSAMPLED_REPORT_SHA256[case]


def _k2_ratio(p, m, g, s, k1):
    """Required K2 of one sample, or 'skipped'/'uncovered' for a homogeneous one."""
    e = compute_equilibrium(p, m)
    A, B, C = math.sqrt(e.a_inf), math.sqrt(e.b_inf), math.sqrt(e.c_inf)
    U, V, W = np.sqrt(s.u), np.sqrt(s.v), np.sqrt(s.w)
    lhs = integrate((U - A) ** 2) + integrate((V - B) ** 2) + integrate((W - C) ** 2)
    defect = stoich_pow(W, p.gamma) - stoich_pow(U, p.alpha) * stoich_pow(V, p.beta)
    part1 = integrate(defect**2)
    part2 = sum(integrate((F - integrate(F)) ** 2) for F in (U, V, W))
    if part2 == 0.0:
        return "skipped" if lhs <= k1 * part1 else "uncovered"
    return max(0.0, (lhs - k1 * part1) / part2)


def _per_sample_report(p, m, g, n, seed, ratio_of):
    """The one-sample-at-a-time loop that the chunked estimators replace."""
    pairs, counts = [], {"skipped": 0, "uncovered": 0}
    for i in range(n):
        s = sample_admissible(p, m, g, [seed, i])
        r = ratio_of(s)
        if isinstance(r, str):
            counts[r] += 1
            continue
        summary = {"index": i, "mean_u": float(s.u.mean()), "mean_v": float(s.v.mean()),
                   "mean_w": float(s.w.mean())}
        pairs.append((r, summary))
    ratios = np.array([r for r, _ in pairs])
    return {
        "n_samples": len(pairs),
        "min_ratio": ratios.min(),
        "max_ratio": ratios.max(),
        "argmin": pairs[int(np.argmin(ratios))][1],
        "argmax": pairs[int(np.argmax(ratios))][1],
        "n_skipped": counts["skipped"],
        "n_uncovered": counts["uncovered"],
    }


class TestChunkBoundary:
    """Reports over CHUNK + 37 samples equal the per-sample loop's."""

    CONFIGS = [(P111, M22), (ReactionParams(1, 2, 3), MassPair(4, 3))]

    @staticmethod
    def _assert_matches(rep, ref):
        assert rep.min_ratio == pytest.approx(ref["min_ratio"], rel=1e-12)
        assert rep.max_ratio == pytest.approx(ref["max_ratio"], rel=1e-12)
        for key in ("argmin", "argmax", "n_samples", "n_skipped", "n_uncovered"):
            assert getattr(rep, key) == ref[key], key

    @pytest.mark.parametrize("p,m", CONFIGS)
    def test_eed_k2_and_ck(self, p, m):
        g, n, seed = Grid1D(16), CHUNK + 37, 3
        e = compute_equilibrium(p, m)

        def eed(s):
            rep = dissipation(p, s, e)
            return "skipped" if rep.E_rel < 1e-12 else rep.D / rep.E_rel

        def ck(s):
            lhs, rhs = ck_gap(p, s, e)
            return "skipped" if lhs < 1e-12 or rhs == 0.0 else lhs / rhs

        self._assert_matches(
            estimate_eed_constant(p, m, g, n, seed=seed), _per_sample_report(p, m, g, n, seed, eed)
        )
        self._assert_matches(
            verify_csiszar_kullback(p, m, g, n, seed=seed), _per_sample_report(p, m, g, n, seed, ck)
        )
        self._assert_matches(
            estimate_k2_split(p, m, g, n, k1=1.0, seed=seed),
            _per_sample_report(p, m, g, n, seed, lambda s: _k2_ratio(p, m, g, s, 1.0)),
        )


class TestCsiszarKullback:
    def test_min_ratio_positive(self):
        rep = verify_csiszar_kullback(P111, M22, Grid1D(48), 100, seed=13)
        assert rep.min_ratio > 0.0

    def test_homogeneous_sample_matches_direct_evaluation(self):
        g = Grid1D(32)
        s = State(0.0, np.full(32, 1.1), np.full(32, 1.1), np.full(32, 0.9))
        e = compute_equilibrium(P111, MassPair(*weighted_masses(P111, s)))
        rep = dissipation(P111, s, e)
        # lhs from the report, rhs by hand: three L1 distances of 0.1
        assert rep.E_rel / 0.03 == pytest.approx(0.49526438258236737, rel=1e-10)


class TestDuality:
    @pytest.mark.parametrize(
        "da,db,expected",
        [(1.0, 1.0, 0.0), (1.0, 3.0, 0.5), (1.0, 100.0, 99 / 101)],
    )
    def test_values(self, da, db, expected):
        assert duality_margin(da, db) == pytest.approx(expected, rel=1e-15)

    @given(a=st.floats(1e-6, 1e6), b=st.floats(1e-6, 1e6), lam=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_scale_invariance_and_range(self, a, b, lam):
        m = duality_margin(a, b)
        assert 0.0 <= m < 1.0
        assert m == duality_margin(b, a)
        assert duality_margin(lam * a, lam * b) == pytest.approx(m, rel=1e-12, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            duality_margin(0.0, 1.0)

    @pytest.mark.parametrize("da,db", [(math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf)])
    def test_rejects_nonfinite(self, da, db):
        with pytest.raises(ValueError, match="finite and > 0"):
            duality_margin(da, db)


class TestElementaryInequality:
    def test_no_violations_on_random_pairs(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(1e-8, 1e3, 10_000)
        b = rng.uniform(1e-8, 1e3, 10_000)
        assert np.all(elementary_inequality_gap(a, b) >= 0.0)

    def test_tie_is_exact_zero(self):
        assert elementary_inequality_gap(np.array([2.0]), np.array([2.0]))[0] == 0.0

    def test_near_ties_keep_their_sign_and_leading_order(self):
        # the bracket's two O(h^2) parts used to cancel to a negative gap here
        assert elementary_inequality_gap(np.array([1e6]), np.array([999999.96875]))[0] >= 0.0
        a = np.logspace(-6, 6, 50)[:, None]
        b = a * (1.0 + np.array([-1e-3, -1e-7, -1e-12, 1e-12, 1e-7, 1e-3]))
        gaps = elementary_inequality_gap(a, b)
        assert np.all(gaps >= 0.0)
        s, t = np.sqrt(a), np.sqrt(b)
        h = s / t - 1.0
        lead = 2.0 * (s - t) * t * h**3 * (1.0 / 6.0 - h / 6.0)
        np.testing.assert_allclose(gaps, lead, rtol=1e-5)

    @given(a=st.floats(1e-6, 1e6), b=st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_pointwise_property(self, a, b):
        assert elementary_inequality_gap(np.array([a]), np.array([b]))[0] >= 0.0


def test_split_bound_parts_are_nonnegative():
    # spot-check the raw ingredients of the split bound on one sample
    g = Grid1D(40)
    p = ReactionParams(1, 2, 2)
    m = MassPair(3, 4)
    eq = compute_equilibrium(p, m)
    s = sample_admissible(p, m, g, seed=1)
    U, V, W = np.sqrt(s.u), np.sqrt(s.v), np.sqrt(s.w)
    defect = stoich_pow(W, p.gamma) - stoich_pow(U, p.alpha) * stoich_pow(V, p.beta)
    assert integrate(defect**2) >= 0.0
    assert integrate((U - integrate(U)) ** 2) >= 0.0
