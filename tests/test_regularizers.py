import numpy as np
import pytest

from rankadmm.errors import InvalidParameterError
from rankadmm.regularizers import (
    RegularizerSpec,
    ZERO,
    l1,
    l2,
    mcp,
    moreau_value_and_grad,
    prox,
    reg_value,
    scad,
)

ALL_SPECS = [ZERO, l2(0.7), l1(1.3), mcp(0.8, 4.0), scad(0.6, 3.5)]


def penalty_on_grid(spec, grid):
    """Independent vectorized restatement of the scalar penalties."""
    a = np.abs(grid)
    if spec.variant == "zero":
        return np.zeros_like(grid)
    if spec.variant == "l2":
        return 0.5 * spec.mu * grid**2
    if spec.variant == "l1":
        return 0.5 * spec.mu * a
    mu, th = spec.mu, spec.theta
    if spec.variant == "mcp":
        return np.where(a <= th * mu, mu * a - a**2 / (2 * th), 0.5 * th * mu**2)
    quad = (2 * th * mu * a - a**2 - mu**2) / (2 * (th - 1))
    return np.where(a <= mu, mu * a, np.where(a <= th * mu, quad, 0.5 * (th + 1) * mu**2))


def scalar_grid_prox(spec, gamma, w, lo=None, hi=None, step=1e-7):
    if lo is None:
        lo = min(0.0, w) - 0.1
    if hi is None:
        hi = max(0.0, w) + 0.1
    grid = np.arange(lo, hi + step, step)
    vals = penalty_on_grid(spec, grid) + (grid - w) ** 2 / (2.0 * gamma)
    return float(grid[int(np.argmin(vals))])


def test_values():
    assert reg_value(ZERO, np.array([5.0, -3.0])) == 0.0
    assert reg_value(l2(2.0), np.array([3.0, 4.0])) == pytest.approx(25.0)
    assert reg_value(l1(2.0), np.array([3.0, -4.0])) == pytest.approx(7.0)


@pytest.mark.parametrize("spec", [l1(1.3), mcp(0.8, 4.0), scad(0.6, 3.5)])
def test_reg_terms_are_the_coordinate_penalties(spec, rng):
    # reg_value is the sum of the per-coordinate penalties
    w = rng.standard_normal(50) * 3.0
    assert reg_value(spec, w) == pytest.approx(penalty_on_grid(spec, w).sum(), rel=1e-14)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        RegularizerSpec("l1", mu=0.0)
    with pytest.raises(InvalidParameterError):
        RegularizerSpec("mcp", mu=1.0, theta=1.0)
    with pytest.raises(InvalidParameterError):
        RegularizerSpec("scad", mu=1.0, theta=2.0)
    with pytest.raises(InvalidParameterError):
        RegularizerSpec("nuclear")


def test_weak_convexity_moduli():
    assert ZERO.weak_convexity_c == 0.0
    assert l1(1.0).weak_convexity_c == 0.0
    assert l2(1.0).weak_convexity_c == 0.0
    assert mcp(1.0, 4.0).weak_convexity_c == pytest.approx(0.25)
    assert scad(1.0, 3.5).weak_convexity_c == pytest.approx(0.4)


def test_prox_soft_threshold_example():
    assert prox(l1(2.0), 0.5, np.array([2.0])) == pytest.approx([1.5])


def test_prox_l2_example():
    assert prox(l2(1.0), 1.0, np.array([4.0])) == pytest.approx([2.0])


def test_prox_zero_identity(rng):
    w = rng.standard_normal(5)
    assert prox(ZERO, 0.3, w) == pytest.approx(w)


def test_prox_rejects_ill_posed():
    with pytest.raises(InvalidParameterError):
        prox(mcp(1.0, 2.0), 2.5, np.array([1.0]))  # c*gamma = 1.25
    with pytest.raises(InvalidParameterError):
        prox(l1(1.0), 0.0, np.array([1.0]))


def test_mcp_prox_example_against_grid():
    spec = mcp(1.0, 4.0)
    got = prox(spec, 0.1, np.array([0.05]))[0]
    assert got == pytest.approx(scalar_grid_prox(spec, 0.1, 0.05, lo=-0.5, hi=0.5), abs=1e-6)


@pytest.mark.parametrize("spec", [l1(0.9), mcp(0.8, 4.0), scad(0.6, 3.5)])
def test_prox_matches_grid_scan(spec, rng):
    gamma = 0.4
    for w in rng.uniform(-2.5, 2.5, size=8):
        got = prox(spec, gamma, np.array([w]))[0]
        ref = scalar_grid_prox(spec, gamma, w)
        assert got == pytest.approx(ref, abs=1e-6)


def test_moreau_zero():
    value, grad = moreau_value_and_grad(ZERO, 0.7, np.array([1.0, -2.0]))
    assert value == 0.0
    assert grad == pytest.approx([0.0, 0.0])


def test_moreau_l1_membership_example():
    value, grad = moreau_value_and_grad(l1(2.0), 0.5, np.array([2.0]))
    # prox is 1.5; the gradient must be the subgradient mu/2 * sign there
    assert grad == pytest.approx([1.0])
    assert value == pytest.approx(reg_value(l1(2.0), np.array([1.5])) + (0.5**2) / (2 * 0.5))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_moreau_gradient_finite_differences(spec, rng):
    c = spec.weak_convexity_c
    gamma = 0.3 if c == 0 else min(0.3, 1.0 / (3.0 * c))
    for _ in range(25):
        w = rng.uniform(-2.0, 2.0, size=4)
        value, grad = moreau_value_and_grad(spec, gamma, w)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            vp, _ = moreau_value_and_grad(spec, gamma, w + e)
            vm, _ = moreau_value_and_grad(spec, gamma, w - e)
            fd = (vp - vm) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("spec", [l1(1.1), mcp(0.8, 4.0), scad(0.6, 3.5)])
def test_prox_three_lipschitz_squared(spec, rng):
    c = spec.weak_convexity_c
    gamma = 0.25 if c == 0 else 1.0 / (3.0 * c)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=3)
        y = rng.uniform(-3.0, 3.0, size=3)
        px = prox(spec, gamma, x)
        py = prox(spec, gamma, y)
        assert np.sum((px - py) ** 2) <= 3.0 * np.sum((x - y) ** 2) + 1e-12


@pytest.mark.parametrize("spec", [mcp(0.9, 3.0), scad(0.7, 4.0), l1(1.0)])
def test_moreau_weak_convexity_inequality(spec, rng):
    c = spec.weak_convexity_c
    gamma = 0.3 if c == 0 else 1.0 / (3.0 * c)

    def shifted(v):
        val, _ = moreau_value_and_grad(spec, gamma, v)
        return val + np.sum(v * v) / (2.0 * gamma)

    for _ in range(40):
        x = rng.uniform(-2.0, 2.0, size=3)
        y = rng.uniform(-2.0, 2.0, size=3)
        for t in (0.25, 0.5, 0.75):
            mid = t * x + (1 - t) * y
            assert shifted(mid) <= t * shifted(x) + (1 - t) * shifted(y) + 1e-9


def test_moreau_rejects_excess_curvature():
    with pytest.raises(InvalidParameterError):
        moreau_value_and_grad(mcp(1.0, 3.0), 1.5, np.array([1.0]))  # c*gamma = 0.5
