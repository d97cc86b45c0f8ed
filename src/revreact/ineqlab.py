"""Empirical verification of the functional inequalities behind relaxation.

Four inequalities are probed by sampling the conservation manifold:

* homogeneous states: squared distance to equilibrium is controlled by the
  squared reaction defect (scan_homogeneous_ratio);
* spatial states in square-root variables: distance to equilibrium is
  controlled by reaction defect plus spatial variance (estimate_k2_split);
* entropy dissipation dominates relative entropy, D >= K * E_rel
  (estimate_eed_constant, trajectory_eed_constant);
* relative entropy dominates squared L1 distance, the Csiszar-Kullback
  bound (verify_csiszar_kullback).

All constants reported here are empirical min/max ratios over samples,
not claims about the optimal constants, which are only known to exist.
The sampled estimators draw sample i from the stream of default_rng([seed, i]),
whose PCG64 state _pcg64_states computes for a chunk of i at once, and evaluate
CHUNK samples at a time as one stacked State, so a report does not depend on CHUNK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import index
from typing import Any

import numpy as np

from .entropy import ck_gap, dissipation
from .grid import Grid1D, integrate
from .model import (
    Equilibrium,
    MassPair,
    ReactionParams,
    compute_equilibrium,
    require,
    stoich_pow,
    uv_totals,
)
from .solver import State, Trajectory

_EREL_CUTOFF = 1e-12  # below this a sample is "at equilibrium", uninformative
# samples evaluated together; the stacked fields hold 3 * CHUNK * n_cells floats
CHUNK = 128


@dataclass(frozen=True)
class RatioReport:
    """Extremal observed ratios of one inequality over a sample set."""

    n_samples: int
    min_ratio: float
    max_ratio: float
    argmin: Any
    argmax: Any
    constant_estimate: float
    zero_limit: float | None = None
    n_skipped: int = 0
    n_uncovered: int = 0


def homogeneous_ratio(p: ReactionParams, e: Equilibrium, mu_c) -> np.ndarray:
    """Distance-to-defect ratio along the constrained perturbation family.

    Homogeneous nonnegative states (a^2, b^2, c^2) on the conservation
    manifold form a one-parameter family: writing a = A(1+mu_a) etc. around
    the square roots (A, B, C) of the equilibrium, the conservation laws
    force

        mu_a = sqrt(1 - (alpha C^2 / gamma A^2) mu_c (2 + mu_c)) - 1,

    and similarly for mu_b.  The returned ratio is

        ((a-A)^2 + (b-B)^2 + (c-C)^2) / (a^alpha b^beta - c^gamma)^2,

    whose supremum over the admissible mu_c range is the constant of the
    homogeneous distance bound.  mu_c = 0 is a removable 0/0.
    """
    A, B, C = np.sqrt(e.y)
    mu_c = np.asarray(mu_c, dtype=float)
    shrink = mu_c * (2.0 + mu_c)
    mu_a = np.sqrt(np.maximum(1.0 - (p.alpha * C * C) / (p.gamma * A * A) * shrink, 0.0)) - 1.0
    mu_b = np.sqrt(np.maximum(1.0 - (p.beta * C * C) / (p.gamma * B * B) * shrink, 0.0)) - 1.0
    a = A * (1.0 + mu_a)
    b = B * (1.0 + mu_b)
    c = C * (1.0 + mu_c)
    num = (a - A) ** 2 + (b - B) ** 2 + (c - C) ** 2
    den = (stoich_pow(a, p.alpha) * stoich_pow(b, p.beta) - stoich_pow(c, p.gamma)) ** 2
    return num / den


def mu_c_max(p: ReactionParams, e: Equilibrium) -> float:
    """Upper end of the admissible perturbation range (lower end is -1)."""
    A, B, C = np.sqrt(e.y)
    bound = min(
        (p.gamma * A * A) / (p.alpha * C * C),
        (p.gamma * B * B) / (p.beta * C * C),
    )
    return -1.0 + np.sqrt(1.0 + bound)


def _integer(x) -> int:
    """operator.index(x), refusing a bool: Python's int subclass is never a count."""
    if isinstance(x, bool):
        raise TypeError
    return index(x)


def check_n_grid(n_grid) -> None:
    """The homogeneous scan's rule for its grid, which the config applies too."""
    try:
        _integer(n_grid)
    except TypeError:
        raise TypeError(f"n_grid must be an integer, got {n_grid!r}") from None
    require("n_grid", n_grid, n_grid >= 100, ">= 100")


def scan_homogeneous_ratio(p: ReactionParams, m: MassPair, n_grid: int = 2001) -> RatioReport:
    """Sweep the homogeneous perturbation family and bound its ratio.

    A symmetric deleted neighborhood of half-width 1e-6 removes the
    removable singularity at mu_c = 0; the limit there is recovered by
    one-sided Richardson extrapolation and reported as zero_limit.
    """
    check_n_grid(n_grid)
    e = compute_equilibrium(p, m)
    hi = mu_c_max(p, e)
    grid = np.linspace(-1.0, hi, n_grid)
    grid = grid[np.abs(grid) >= 1e-6]
    r_h, r_h2 = homogeneous_ratio(p, e, np.array([1e-3, 0.5e-3]))
    return _ratio_report(homogeneous_ratio(p, e, grid), grid.tolist(), max,
                         zero_limit=float(2.0 * r_h2 - r_h))


def _positive_shape(rng: np.random.Generator, below, shape: np.ndarray) -> None:
    """Fill shape in place with a nonnegative piecewise-constant random shape of positive mean.

    Mixes plain uniform cells, uniform cells silenced on a random window
    (to reach the degenerate corners of the manifold) and heavy-tailed
    spikes.  below(k) draws the integers, as rng.integers(0, k) would.
    """
    n = shape.size
    kind = below(3)
    rng.random(out=shape)  # drawn for every kind: kind 2 discards it, but it advances the stream
    if kind == 1:
        i0, i1 = sorted((below(n), below(n)))
        shape[i0:i1] = 0.0  # i1 < n keeps at least one live cell
    elif kind == 2:
        rng.standard_exponential(out=shape)
    if not shape.item(-1) > 0.0 and shape.sum() <= 0.0:  # cells are >= 0: a live last cell suffices
        shape[below(n)] = 1.0


def _bounded(next_uint32, k: int) -> int:
    """rng.integers(0, k) for 2 <= k < 2**32 from next_uint32(), as numpy draws it (Lemire 2019)."""
    m = next_uint32() * k
    while m & 0xFFFFFFFF < (1 << 32) % k:  # reject the low words that would favour some values
        m = next_uint32() * k
    return m >> 32


def default_floor(m: MassPair) -> float:
    """Strictly positive cell floor used by the sampler."""
    return 1e-6 * min(m.m1, m.m2)


def _seed_words(seed: int, indices) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for every i in indices, as rows."""
    # numpy's hash: O'Neill's seed_seq (PCG report HMC-CS-2014-0905) with a pool of 4 words
    h, mult_a, mult_b = 0x43B0D7E5, 0x931E8875, 0x58F38DED

    def hashed(x, mult=mult_a):  # h runs through a fixed sequence, so x may hold all indices
        nonlocal h
        x, h = x ^ h, h * mult & 0xFFFFFFFF
        x = x * h  # uint32 arithmetic wraps mod 2**32, as the hash does
        return x ^ x >> 16

    index = np.asarray(indices, dtype=np.uint32)
    # mix_entropy: seed's 32-bit words, low first, then i; 0s fill a short entropy up to the pool
    words = [np.full_like(index, seed >> k & 0xFFFFFFFF)
             for k in range(0, max(seed.bit_length(), 1), 32)] + [index]
    words += [np.zeros_like(index)] * (4 - len(words))
    words[:4] = [hashed(word) for word in words[:4]]  # the pool
    # every pool word into every other, so late words reach early ones, then each word past it
    for src, dst in [(src, dst) for src in range(len(words)) for dst in range(4) if src != dst]:
        x = words[dst] * 0xCA01F9DD - hashed(words[src]) * 0x4973F715
        words[dst] = x ^ x >> 16
    h = 0x8B51F9DD  # generate_state: 8 words from the pool, read as 4 little-endian uint64
    state = np.stack([hashed(words[k % 4], mult_b) for k in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_states(seed: int, indices) -> list[dict]:
    """PCG64(SeedSequence([seed, i])).state for every i in indices, set as pcg64_set_seed does."""
    states = []
    for w0, w1, w2, w3 in _seed_words(seed, indices).tolist():  # two LCG steps from state 0
        inc = ((w2 << 64 | w3) << 1 | 1) & (2**128 - 1)
        state = ((inc + (w0 << 64 | w1)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & (2**128 - 1)
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _admissible_stack(p: ReactionParams, m: MassPair, g: Grid1D, states) -> State:
    """One admissible sample per PCG64 state, stacked as a State of (len(states), n) fields.

    One Generator draws every sample, its PCG64 set to the sample's state, in a fixed
    order: w's mass fraction (next_double, as rng.random()), then the w, u and v shapes
    straight into their rows of the stack.  The floor default_floor(m), the rescaling
    to the conserved masses and the feasibility check then act on the stack.
    """
    delta = default_floor(m)
    bound = min(m.m1 / p.alpha, m.m2 / p.beta) - p.gamma * delta
    if bound <= delta:
        raise ValueError(f"m1={m.m1!r}, m2={m.m2!r} with alpha={p.alpha!r}, beta={p.beta!r}, "
                         f"gamma={p.gamma!r} leave no room for w between the sampler's "
                         f"floor {delta} and {bound}")
    bit_generator = np.random.PCG64(0)  # each sample replaces this seed's state with its own
    rng, c = np.random.Generator(bit_generator), bit_generator.ctypes
    below = partial(_bounded, partial(c.next_uint32, c.state))
    frac = np.empty(len(states))
    shapes = np.empty((len(states), 3, g.n_cells))  # of u, v, w, drawn in the order w, u, v
    for k, state in enumerate(states):
        bit_generator.state = state
        frac[k] = c.next_double(c.state)
        for j in (2, 0, 1):
            _positive_shape(rng, below, shapes[k, j])
    frac = 0.02 + (0.95 - 0.02) * frac  # uniform(0.02, 0.95) maps the same double the same way
    means = shapes.mean(axis=-1)

    w_mass = delta + frac * (bound - delta)
    w = delta + shapes[:, 2] * (w_mass - delta)[:, None] / means[:, 2:]
    uv_means = uv_totals(p, np.array([m.m1, m.m2]), integrate(w)[:, None])
    if not np.all(uv_means > delta):
        raise ValueError("infeasible floor for the drawn w mass")
    uv = delta + shapes[:, :2] * (uv_means - delta)[..., None] / means[:, :2, None]
    return State(0.0, uv[:, 0], uv[:, 1], w)  # the one copy into State.y


def sample_admissible(p: ReactionParams, m: MassPair, g: Grid1D, seed) -> State:
    """Draw one random strictly positive state at t = 0 with the given masses.

    w is a floored random shape scaled to a feasible mass, then u and v are
    floored random shapes rescaled to the means the conservation laws
    dictate.  Both laws hold to rounding by construction.
    """
    if not isinstance(seed, (list, tuple, np.ndarray, np.random.SeedSequence)):
        seed, _ = check_sampling_keys(seed, 1)  # an int seed as the estimators take it
    return State(0.0, *_admissible_stack(p, m, g, [np.random.PCG64(seed).state]).y[0])


def _ratio_report(ratios, labels: list, pick_constant, **counts) -> RatioReport:
    """The first smallest and first largest ratio with their labels, and pick_constant(min, max).

    counts (n_samples, n_skipped, n_uncovered, zero_limit) are taken as given;
    n_samples defaults to the number of labels.
    """
    ratios = np.asarray(ratios, dtype=float)
    i_min, i_max = int(np.argmin(ratios)), int(np.argmax(ratios))
    lo, hi = float(ratios[i_min]), float(ratios[i_max])
    return RatioReport(min_ratio=lo, max_ratio=hi, argmin=labels[i_min], argmax=labels[i_max],
                       constant_estimate=pick_constant(lo, hi),
                       **{"n_samples": len(labels), **counts})


def check_sampling_keys(seed, n_samples) -> tuple[int, int]:
    """seed and n_samples as ints, each checked by name; the config applies the same rules."""
    try:
        seed, n_samples = _integer(seed), _integer(n_samples)
    except TypeError:
        raise TypeError(f"seed and n_samples must be integers: {seed!r}, {n_samples!r}") from None
    require("seed", seed, seed >= 0, ">= 0")
    require("n_samples", n_samples, 1 <= n_samples < 2**32, "in [1, 2**32)")  # i is one seed word
    return seed, n_samples


def _sampled_report(p, m, g, n_samples, seed, evaluate, pick_constant):
    """Extremal ratios over the samples [seed, i], i < n_samples, CHUNK at a time.

    evaluate(stack) returns, per stacked sample, its ratio, whether it is
    informative, and whether it is an uninformative sample the bound does
    not cover.  Uninformative samples are counted in n_uncovered or else in
    n_skipped; an informative sample with a non-finite ratio is an error.
    Only the first minimal and maximal sample of each chunk is kept, which
    gives the same first-occurrence argmin/argmax as one pass over all.
    """
    seed, n_samples = check_sampling_keys(seed, n_samples)
    ratios, labels = [], []
    n_informative = n_uncovered = n_bad = 0
    for start in range(0, n_samples, CHUNK):
        s = _admissible_stack(p, m, g, _pcg64_states(seed, range(n_samples)[start:start + CHUNK]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio, informative, uncovered = evaluate(s)
        n_uncovered += int(np.count_nonzero(uncovered))
        finite = informative & np.isfinite(ratio)
        n_bad += int(np.count_nonzero(informative)) - int(np.count_nonzero(finite))
        kept = np.flatnonzero(finite)
        n_informative += kept.size
        if kept.size:
            for k in (int(kept[np.argmin(ratio[kept])]), int(kept[np.argmax(ratio[kept])])):
                means = dict(zip(("mean_u", "mean_v", "mean_w"), s.y[k].mean(axis=-1).tolist()))
                ratios.append(float(ratio[k]))
                labels.append({"index": start + k, **means})
    if n_bad:
        raise ValueError(f"{n_bad} of {n_samples} samples gave a non-finite ratio")
    if not labels:
        raise ValueError("no informative samples")
    return _ratio_report(ratios, labels, pick_constant, n_samples=n_informative,
                         n_skipped=n_samples - n_informative - n_uncovered, n_uncovered=n_uncovered)


def estimate_k2_split(
    p: ReactionParams,
    m: MassPair,
    g: Grid1D,
    n_samples: int,
    k1: float,
    seed: int = 0,
) -> RatioReport:
    """Smallest variance coefficient K2 closing the square-root split bound.

    For each sample, with capital letters the square roots of the fields
    and (A, B, C) those of the equilibrium, the bound reads

        |U-A|^2 + |V-B|^2 + |W-C|^2
            <= k1 * |W^gamma - U^alpha V^beta|^2
               + K2 * (|U-Ubar|^2 + |V-Vbar|^2 + |W-Wbar|^2)

    (all squared L2 norms).  The report's constant_estimate is the max over
    samples of the required K2, clamped at zero.  Homogeneous samples have
    zero variance; those covered by the k1 term are counted in n_skipped,
    the rest in n_uncovered.
    """
    require("k1", k1, k1 > 0, "> 0")
    root_eq = np.sqrt(compute_equilibrium(p, m).y)[:, None]

    def evaluate(s: State):
        root = np.sqrt(s.y)  # U, V, W on the species axis
        U, V, W = np.moveaxis(root, -2, 0)
        lhs = integrate((root - root_eq) ** 2).sum(axis=-1)
        defect = stoich_pow(W, p.gamma) - stoich_pow(U, p.alpha) * stoich_pow(V, p.beta)
        part1 = integrate(defect**2)
        part2 = integrate((root - integrate(root)[..., None]) ** 2).sum(axis=-1)
        homogeneous = part2 == 0.0
        ratio = np.maximum(0.0, (lhs - k1 * part1) / part2)
        return ratio, ~homogeneous, homogeneous & ~(lhs <= k1 * part1)

    return _sampled_report(p, m, g, n_samples, seed, evaluate, max)


def estimate_eed_constant(
    p: ReactionParams,
    m: MassPair,
    g: Grid1D,
    n_samples: int,
    seed: int = 0,
) -> RatioReport:
    """Minimal observed D / E_rel over admissible samples.

    Positivity of the minimum is the empirical content of the entropy
    entropy-dissipation bound D >= K * E_rel on the conservation manifold.
    Samples with E_rel below cutoff are excluded.  A NaN or infinite ratio
    (which floored samples only give through underflow, e.g. at masses near
    1e-300) raises ValueError naming how many samples gave one.
    """
    e = compute_equilibrium(p, m)

    def evaluate(s: State):
        rep = dissipation(p, s, e)
        return rep.D / rep.E_rel, ~(rep.E_rel < _EREL_CUTOFF), False

    return _sampled_report(p, m, g, n_samples, seed, evaluate, min)


def trajectory_eed_constant(traj: Trajectory) -> RatioReport:
    """Minimal D / E_rel over the recorded rows of a trajectory.

    Rows with E_rel below cutoff or an infinite D (a species at 0) count in n_skipped.
    """
    rows = [(row.D / row.E_rel, row.t) for row in traj.rows if row.E_rel >= _EREL_CUTOFF]
    rows = [(ratio, t) for ratio, t in rows if math.isfinite(ratio)]
    if len(rows) < 2:
        raise ValueError("trajectory has fewer than 2 informative rows")
    return _ratio_report([ratio for ratio, _ in rows], [{"t": t} for _, t in rows], min,
                         n_skipped=len(traj.rows) - len(rows))


def verify_csiszar_kullback(
    p: ReactionParams,
    m: MassPair,
    g: Grid1D,
    n_samples: int,
    seed: int = 0,
) -> RatioReport:
    """Minimal observed E_rel / (sum of squared L1 distances) over samples.

    Positivity of the minimum verifies the Csiszar-Kullback bound on the
    conservation manifold.  Samples with E_rel below cutoff or at zero L1
    distance are excluded; a non-finite ratio raises ValueError.
    """
    e = compute_equilibrium(p, m)

    def evaluate(s: State):
        lhs, rhs = ck_gap(p, s, e)
        return lhs / rhs, ~(lhs < _EREL_CUTOFF) & (rhs != 0.0), False

    return _sampled_report(p, m, g, n_samples, seed, evaluate, min)


def duality_margin(d_a: float, d_b: float) -> float:
    """(b - a) / (a + b) for a = min, b = max of two diffusivities.

    Always in [0, 1): the closer to 0, the more room the pair leaves in the
    exponent-2 duality condition used by the existence theory.
    """
    if not all(d > 0 and math.isfinite(d) for d in (d_a, d_b)):
        raise ValueError(f"diffusivities must be finite and > 0, got {d_a!r}, {d_b!r}")
    a, b = min(d_a, d_b), max(d_a, d_b)
    return (b - a) / (a + b)


def elementary_inequality_gap(a, b):
    """(a-b)ln(a/b) - 4(sqrt(a)-sqrt(b))^2, nonnegative for a, b > 0.

    Naive evaluation loses the sign to rounding near a = b (the two sides
    agree to fourth order there), so the gap is computed in the factored
    form 2(s-t) * t * [(r+1)ln(r) - 2(r-1)] with s = sqrt(a), t = sqrt(b),
    r = s/t.  With h = r - 1 the bracket is h^3/6 - h^4/6 + 3h^5/20 - ...;
    for |h| < 1e-2 its two O(h^2) parts would cancel, so the series is summed
    there, which keeps every factor's sign exact.
    """
    s = np.sqrt(np.asarray(a, dtype=float))
    t = np.sqrt(np.asarray(b, dtype=float))
    h = s / t - 1.0
    small = np.abs(h) < 1e-2
    hs = np.where(small, h, 0.0)
    coeffs = [(-1) ** j * (j + 1) / ((j + 2) * (j + 3)) for j in range(7, -1, -1)]
    series = hs**3 * np.polyval(coeffs, hs)
    bracket = np.where(small, series, 2.0 * (np.log1p(h) - h) + h * np.log1p(h))
    return 2.0 * (s - t) * t * bracket
