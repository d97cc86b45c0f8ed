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
    assert integrate(np.ones(4)) == 1.0


def test_integrate_constants():
    assert integrate(np.full(200, 2.0)) == pytest.approx(2.0, rel=1e-15)
    assert integrate([1.0, 3.0]) == pytest.approx(2.0, rel=1e-15)  # array-likes too


def test_integrate_sine(g200):
    x = g200.cell_centers()
    assert integrate(np.sin(np.pi * x)) == pytest.approx(2 / np.pi, abs=1e-4)


def test_reductions_over_a_stack_match_each_field():
    rng = np.random.default_rng(8)
    stack = rng.uniform(0.0, 3.0, (4, 200))
    for fn in (integrate, fisher_information):
        values = fn(stack)
        assert values.shape == (4,)
        for k in range(4):
            one = fn(stack[k])
            assert type(one) is float
            assert values[k] == one
    np.testing.assert_array_equal(
        laplacian_neumann(stack)[2], laplacian_neumann(stack[2])
    )


def test_laplacian_constant_and_two_cells():
    g = Grid1D(2)
    np.testing.assert_array_equal(laplacian_neumann(np.array([3.0, 3.0])), 0.0)
    a, b = 1.0, 2.5
    out = laplacian_neumann(np.array([a, b]))
    np.testing.assert_allclose(out, [(b - a) / g.dx**2, (a - b) / g.dx**2], rtol=1e-15)


def test_laplacian_eigenfunction_convergence():
    # cos(pi x) has zero flux at both ends; the stencil error is O(dx^2)
    errs = {}
    for n in (200, 400):
        g = Grid1D(n)
        x = g.cell_centers()
        f = np.cos(np.pi * x)
        errs[n] = np.max(np.abs(laplacian_neumann(f) + np.pi**2 * f))
    assert errs[400] < errs[200]
    assert errs[200] / errs[400] >= 3.5


def test_laplacian_integrates_to_zero_and_is_linear(g200):
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 5, 200)
    h = rng.uniform(0, 5, 200)
    scale = np.max(np.abs(f)) / g200.dx**2
    assert abs(integrate(laplacian_neumann(f))) <= 1e-12 * scale
    lhs = laplacian_neumann(2.0 * f + 3.0 * h)
    rhs = 2.0 * laplacian_neumann(f) + 3.0 * laplacian_neumann(h)
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
        assert laplacian_neumann(f).tobytes() == _laplacian_diff_form(g, f).tobytes()


class TestFisher:
    def test_constant_is_zero(self):
        assert fisher_information(np.full(200, 4.0)) == 0.0

    def test_quadratic_profile_discrete_value(self):
        # sqrt((1+x)^2) sampled at midpoints has exactly unit face slopes, so
        # the face sum gives 4(1 - dx): first-order here because the profile
        # has nonzero boundary gradients that the interior faces cannot see.
        for n in (100, 200, 400):
            g = Grid1D(n)
            f = (1.0 + g.cell_centers()) ** 2
            assert fisher_information(f) == pytest.approx(4.0 * (1 - g.dx), rel=1e-12)

    def test_quadratic_profile_error_decreases_monotonically(self):
        errs = [
            abs(fisher_information((1.0 + Grid1D(n).cell_centers()) ** 2) - 4.0)
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
            errs[n] = abs(fisher_information(2.0 + np.cos(np.pi * g.cell_centers())) - exact)
        assert errs[200] / errs[400] >= 3.5

    def test_zero_cell_is_finite(self):
        f = np.ones(200)
        f[77] = 0.0
        val = fisher_information(f)
        assert np.isfinite(val) and val > 0

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(0.1, 1.0, 200)
        assert fisher_information(f) > 0

    def test_rejects_negative(self):
        f = np.ones(200)
        f[0] = -1e-9
        with pytest.raises(ValueError):
            fisher_information(f)
