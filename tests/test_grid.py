import numpy as np
import pytest

from revreact.grid import Grid1D, fisher_information, integrate, laplacian_neumann


@pytest.fixture
def g200():
    return Grid1D(200)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1)
    assert Grid1D(2).dx == 0.5


@pytest.mark.parametrize("n", [2.5, 3.0, "4", None])
def test_non_integer_cell_count_is_rejected_naming_n_cells(n):
    with pytest.raises(ValueError, match="n_cells must be an integer >= 2"):
        Grid1D(n)


def test_numpy_integer_cell_count_is_accepted():
    g = Grid1D(np.int64(4))
    assert g.dx == 0.25
    assert integrate(g, np.ones(4)) == 1.0


def test_integrate_constants(g200):
    assert integrate(g200, np.full(200, 2.0)) == pytest.approx(2.0, rel=1e-15)
    g2 = Grid1D(2)
    assert integrate(g2, np.array([1.0, 3.0])) == pytest.approx(2.0, rel=1e-15)


def test_integrate_sine(g200):
    x = g200.cell_centers()
    assert integrate(g200, np.sin(np.pi * x)) == pytest.approx(2 / np.pi, abs=1e-4)


def test_reductions_over_a_stack_match_each_field(g200):
    rng = np.random.default_rng(8)
    stack = rng.uniform(0.0, 3.0, (4, 200))
    for fn in (integrate, fisher_information):
        values = fn(g200, stack)
        assert values.shape == (4,)
        for k in range(4):
            one = fn(g200, stack[k])
            assert type(one) is float
            assert values[k] == one
    np.testing.assert_array_equal(
        laplacian_neumann(g200, stack)[2], laplacian_neumann(g200, stack[2])
    )


def test_length_mismatch(g200):
    with pytest.raises(ValueError):
        integrate(g200, np.ones(7))
    with pytest.raises(ValueError):
        laplacian_neumann(g200, np.ones(7))


def test_laplacian_constant_and_two_cells():
    g = Grid1D(2)
    np.testing.assert_array_equal(laplacian_neumann(g, np.array([3.0, 3.0])), 0.0)
    a, b = 1.0, 2.5
    out = laplacian_neumann(g, np.array([a, b]))
    np.testing.assert_allclose(out, [(b - a) / g.dx**2, (a - b) / g.dx**2], rtol=1e-15)


def test_laplacian_eigenfunction_convergence():
    # cos(pi x) has zero flux at both ends; the stencil error is O(dx^2)
    errs = {}
    for n in (200, 400):
        g = Grid1D(n)
        x = g.cell_centers()
        f = np.cos(np.pi * x)
        errs[n] = np.max(np.abs(laplacian_neumann(g, f) + np.pi**2 * f))
    assert errs[400] < errs[200]
    assert errs[200] / errs[400] >= 3.5


def test_laplacian_integrates_to_zero_and_is_linear(g200):
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 5, 200)
    h = rng.uniform(0, 5, 200)
    scale = np.max(np.abs(f)) / g200.dx**2
    assert abs(integrate(g200, laplacian_neumann(g200, f))) <= 1e-12 * scale
    lhs = laplacian_neumann(g200, 2.0 * f + 3.0 * h)
    rhs = 2.0 * laplacian_neumann(g200, f) + 3.0 * laplacian_neumann(g200, h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)


def _laplacian_diff_form(g, f):
    """The Laplacian as first written, with np.diff and a zeroed output."""
    flux = np.diff(f) / g.dx
    out = np.zeros_like(f)
    out[..., :-1] += flux
    out[..., 1:] -= flux
    return out / g.dx


def _log_uniform(rng, shape):
    return 10.0 ** rng.uniform(-300, 6, shape)


@pytest.mark.parametrize("shape", [(2,), (3,), (200,), (4, 2), (5, 200)])
def test_laplacian_matches_the_diff_form_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    g = Grid1D(shape[-1])
    fields = [
        _log_uniform(rng, shape),
        rng.uniform(0, 5, shape),
        np.full(shape, 2.0),  # equal neighbours: zero fluxes
        np.where(rng.random(shape) < 0.5, -0.0, 0.0),  # signed zeros
        np.where(rng.random(shape) < 0.3, 0.0, _log_uniform(rng, shape)),
    ]
    for f in fields:
        assert laplacian_neumann(g, f).tobytes() == _laplacian_diff_form(g, f).tobytes()


class TestFisher:
    def test_constant_is_zero(self, g200):
        assert fisher_information(g200, np.full(200, 4.0)) == 0.0

    def test_quadratic_profile_discrete_value(self):
        # sqrt((1+x)^2) sampled at midpoints has exactly unit face slopes, so
        # the face sum gives 4(1 - dx): first-order here because the profile
        # has nonzero boundary gradients that the interior faces cannot see.
        for n in (100, 200, 400):
            g = Grid1D(n)
            f = (1.0 + g.cell_centers()) ** 2
            assert fisher_information(g, f) == pytest.approx(4.0 * (1 - g.dx), rel=1e-12)

    def test_quadratic_profile_error_decreases_monotonically(self):
        errs = [
            abs(fisher_information(Grid1D(n), (1.0 + Grid1D(n).cell_centers()) ** 2) - 4.0)
            for n in (100, 200, 400)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_neumann_profile_second_order(self):
        # on f = 2 + cos(pi x) the boundary gradients vanish and the face sum
        # converges at second order to pi^2 (2 - sqrt(3))
        exact = np.pi**2 * (2.0 - np.sqrt(3.0))
        errs = {}
        for n in (200, 400):
            g = Grid1D(n)
            errs[n] = abs(fisher_information(g, 2.0 + np.cos(np.pi * g.cell_centers())) - exact)
        assert errs[200] / errs[400] >= 3.5

    def test_zero_cell_is_finite(self, g200):
        f = np.ones(200)
        f[77] = 0.0
        val = fisher_information(g200, f)
        assert np.isfinite(val) and val > 0

    def test_zero_iff_constant(self, g200):
        rng = np.random.default_rng(5)
        f = rng.uniform(0.1, 1.0, 200)
        assert fisher_information(g200, f) > 0

    def test_rejects_negative(self, g200):
        f = np.ones(200)
        f[0] = -1e-9
        with pytest.raises(ValueError):
            fisher_information(g200, f)
