import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankadmm.errors import InvalidParameterError
from rankadmm.problem import Problem
from rankadmm.weights import (
    SCHEMES,
    AoRR,
    CPTValueDependent,
    ERM,
    ESRM,
    Explicit,
    Extremile,
    HumanAligned,
    ResolvedWeights,
    Superquantile,
    cpt_omega,
    resolve,
)
from rankadmm.harness import scheme_from_dict


def density(scheme, t):
    if isinstance(scheme, ERM):
        return np.ones_like(t)
    if isinstance(scheme, Superquantile):
        return np.where(t >= scheme.q, 1.0 / (1.0 - scheme.q), 0.0)
    if isinstance(scheme, Extremile):
        return scheme.order * t ** (scheme.order - 1.0)
    if isinstance(scheme, ESRM):
        return scheme.risk * np.exp(scheme.risk * (t - 1.0)) / (1.0 - math.exp(-scheme.risk))
    raise AssertionError


def quadrature_bins(scheme, n, panels=10**5):
    """Midpoint-rule integral of the density over each rank bin."""
    out = np.empty(n)
    for i in range(n):
        lo, hi = i / n, (i + 1) / n
        mid = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
        out[i] = density(scheme, mid).mean() * (hi - lo)
    return out


def test_erm_uniform():
    assert resolve(ERM(), 4).sigma == pytest.approx([0.25] * 4)


def test_superquantile_examples():
    assert Superquantile(0.8).resolve(5) == pytest.approx([0, 0, 0, 0, 1])
    assert Superquantile(0.5).resolve(5) == pytest.approx([0, 0, 0.2, 0.4, 0.4])


@pytest.mark.parametrize(
    "scheme", [Superquantile(0.8), Superquantile(0.5), Extremile(2.5), ESRM(1.7)]
)
def test_bin_integrals_match_quadrature(scheme):
    got = resolve(scheme, 5).sigma
    assert got == pytest.approx(quadrature_bins(scheme, 5), abs=1e-8)


def test_superquantile_rejects_bad_level():
    with pytest.raises(InvalidParameterError):
        Superquantile(1.0).resolve(3)
    with pytest.raises(InvalidParameterError):
        Superquantile(-0.1).resolve(3)


@pytest.mark.parametrize("scheme", [ERM(), Superquantile(0.5), Superquantile(0.9),
                                    Extremile(1.0), Extremile(3.0), ESRM(0.5), ESRM(4.0)])
@pytest.mark.parametrize("n", [1, 2, 10, 10**4])
def test_spectral_invariants(scheme, n):
    sigma = resolve(scheme, n).sigma
    assert abs(sigma.sum() - 1.0) <= 1e-12
    assert np.all(sigma >= 0)
    assert np.all(np.diff(sigma) >= -1e-12)


def test_extremile_order_below_one_rejected():
    with pytest.raises(InvalidParameterError):
        resolve(Extremile(0.5), 4)


def test_human_aligned_flat_when_b_is_one():
    assert HumanAligned(0.3, 1.0).resolve(3) == pytest.approx([1.0, 1.0, 1.0])


def test_human_aligned_scalar_example():
    assert HumanAligned(0.5, 0.0).resolve(1) == pytest.approx([3.0])


def test_human_aligned_matches_elementwise_loop():
    a, b, n = 0.4, 0.6, 100
    got = HumanAligned(a, b).resolve(n)
    for i in range(1, n + 1):
        t = i / n
        expected = (3 - 3 * b) / (a * a - a + 1) * (3 * t * t - 2 * (a + 1) * t + a) + 1
        assert got[i - 1] == pytest.approx(expected, abs=1e-14)


def test_human_aligned_negative_weights_rejected():
    assert HumanAligned(0.5, -0.5).resolve(10).min() == pytest.approx(-0.5)
    with pytest.raises(InvalidParameterError, match="HumanAligned.*min weight -0.5"):
        resolve(HumanAligned(0.5, -0.5), 10)
    X = np.ones((10, 2))
    y = np.ones(10)
    with pytest.raises(InvalidParameterError, match="HumanAligned"):
        Problem(X=X, y=y, weights=HumanAligned(0.5, -0.5))
    assert resolve(HumanAligned(0.4, 0.6), 10).sigma.min() > 0


def test_cpt_negative_branch_weights_rejected():
    # Below an exponent of about 0.28 cpt_omega is not monotone, so a
    # branch column takes negative weights; both branches are checked.
    low, high = CPTValueDependent(gamma=0.1, delta=0.1).branch_vectors(50)
    assert min(low.min(), high.min()) == pytest.approx(-7.2e-4, rel=0.01)
    for scheme in (CPTValueDependent(gamma=0.1), CPTValueDependent(delta=0.1)):
        with pytest.raises(InvalidParameterError, match="CPTValueDependent.*min weight -.*n=50"):
            resolve(scheme, 50)
    X, y = np.ones((50, 2)), np.ones(50)
    with pytest.raises(InvalidParameterError, match="CPTValueDependent"):
        Problem(X=X, y=y, weights=CPTValueDependent(gamma=0.1, delta=0.1))
    resolved = resolve(CPTValueDependent(), 50)
    assert min(resolved.sigma_low.min(), resolved.sigma_high.min()) >= 0


def test_cpt_omega_endpoints():
    for exponent in (0.3, 0.61, 1.0):
        assert cpt_omega(0.0, exponent) == 0.0
        assert cpt_omega(1.0, exponent) == 1.0


def test_cpt_omega_reference_value():
    # high-precision evaluation of 0.5^g / (2 * 0.5^g)^(1/g) at g = 0.61
    assert cpt_omega(0.5, 0.61) == pytest.approx(0.4206393543357562, abs=1e-12)


def test_cpt_omega_rejects_bad_exponent():
    with pytest.raises(InvalidParameterError):
        cpt_omega(0.5, 0.0)


def test_cpt_omega_monotone_on_validated_range():
    for exponent in np.linspace(0.29, 1.0, 8):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [cpt_omega(p, exponent) for p in grid]
        assert np.all(np.diff(vals) >= -1e-12)


def test_cpt_sigma_single_sample():
    scheme = CPTValueDependent(gamma=0.61, delta=0.69, B=0.0)
    low, high = scheme.branch_vectors(1)
    assert low[0] == pytest.approx(1.0)
    assert high[0] == pytest.approx(1.0)


def test_cpt_sigma_matches_direct_differences():
    scheme = CPTValueDependent(gamma=0.61, delta=0.69, B=0.0)
    n, i = 4, 2
    low = cpt_omega(i / n, scheme.delta) - cpt_omega((i - 1) / n, scheme.delta)
    high = cpt_omega((n - i + 1) / n, scheme.gamma) - cpt_omega((n - i) / n, scheme.gamma)
    sigma_low, sigma_high = scheme.branch_vectors(n)
    assert sigma_low[i - 1] == pytest.approx(low, abs=1e-14)
    assert sigma_high[i - 1] == pytest.approx(high, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 7, 2000])
def test_cpt_branch_vectors_bit_identical_to_scalar_omega(n):
    # The grid evaluation must reproduce the scalar cpt_omega exactly: a
    # last-place change in a weight moves the smoothed CPT trajectories.
    scheme = CPTValueDependent(gamma=0.61, delta=0.69, B=0.0)
    grid = np.arange(0, n + 1, dtype=float) / n
    low = np.diff([cpt_omega(p, scheme.delta) for p in grid])
    high = np.diff([cpt_omega(p, scheme.gamma) for p in grid])[::-1]
    sigma_low, sigma_high = scheme.branch_vectors(n)
    assert np.array_equal(sigma_low, low)
    assert np.array_equal(sigma_high, high)


def test_cpt_branch_vectors_telescope():
    resolved = resolve(CPTValueDependent(B=0.0), 7)
    assert resolved.sigma_low.sum() == pytest.approx(1.0, abs=1e-12)
    assert resolved.sigma_high.sum() == pytest.approx(1.0, abs=1e-12)
    all_low = resolved.sigma_for(np.full(7, -1.0))
    all_high = resolved.sigma_for(np.full(7, 1.0))
    assert all_low.sum() == pytest.approx(1.0, abs=1e-12)
    assert all_high.sum() == pytest.approx(1.0, abs=1e-12)


def test_aorr_examples():
    assert AoRR(3, 1).resolve(4) == pytest.approx([0, 0.5, 0.5, 0])
    assert AoRR(2, 1).resolve(5) == pytest.approx([0, 0, 0, 1, 0])


@given(st.integers(2, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, n)).flatmap(
        lambda nk: st.tuples(st.just(nk[0]), st.just(nk[1]), st.integers(1, nk[1] - 1)))))
@settings(max_examples=60, deadline=None)
def test_aorr_sum_and_support(nkm):
    n, k, m = nkm
    sigma = AoRR(k, m).resolve(n)
    assert sigma.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.count_nonzero(sigma)) == k - m


def test_aorr_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        AoRR(2, 2).resolve(5)
    with pytest.raises(InvalidParameterError):
        AoRR(6, 1).resolve(5)


def test_explicit_length_check():
    with pytest.raises(InvalidParameterError):
        resolve(Explicit([0.5, 0.5]), 3)
    with pytest.raises(InvalidParameterError):
        Explicit([-0.1, 1.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_explicit_rejects_nonfinite_weights(bad):
    with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
        Explicit([0.25, 0.25, 0.25, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_resolved_weights_reject_bad_columns(bad):
    sigma = np.array([0.5, bad])
    with pytest.raises(InvalidParameterError, match="weights must be (finite|nonnegative)"):
        ResolvedWeights(2, sigma)
    with pytest.raises(InvalidParameterError, match="weights must be (finite|nonnegative)"):
        ResolvedWeights(2, None, np.ones(2), sigma, 0.0)


def test_resolved_weights_reject_bad_length_or_reference():
    with pytest.raises(InvalidParameterError, match=r"sigma has shape \(3,\), expected \(2,\)"):
        ResolvedWeights(2, np.ones(3))
    with pytest.raises(InvalidParameterError, match="sigma_high has shape"):
        ResolvedWeights(2, None, np.ones(2), np.ones(1), 0.0)
    for reference in (np.nan, np.inf, -np.inf, None):
        with pytest.raises(InvalidParameterError, match="reference point must be finite"):
            ResolvedWeights(2, None, np.ones(2), np.ones(2), reference)


@pytest.mark.parametrize("build", [
    ESRM, Extremile, lambda v: HumanAligned(b=v), lambda v: CPTValueDependent(B=v),
], ids=["esrm-risk", "extremile-order", "human_aligned-b", "cpt-B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schemes_reject_nonfinite_parameters(build, bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        build(bad)


def test_resolved_weights_store_read_only_copies():
    sigma = np.array([0.25, 0.75])
    resolved = ResolvedWeights(2, sigma)
    sigma[0] = 5.0
    assert resolved.sigma.tolist() == [0.25, 0.75]
    cpt = resolve(CPTValueDependent(B=0), 4)
    assert isinstance(cpt.reference, float)
    for col in (resolved.sigma, cpt.sigma_low, cpt.sigma_high):
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 1.0


TABLE_EXAMPLES = {
    "erm": ERM(),
    "superquantile": Superquantile(0.8),
    "extremile": Extremile(2.5),
    "esrm": ESRM(1.7),
    "human_aligned": HumanAligned(0.3, 0.9),
    "cpt": CPTValueDependent(0.5, 0.6, 1.0),
    "aorr": AoRR(5, 2),
    "explicit": Explicit([0.25, 0.75]),
}


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_scheme_table_round_trip(kind):
    scheme = TABLE_EXAMPLES[kind]
    assert type(scheme) is SCHEMES[kind]
    assert scheme_from_dict({"kind": kind, **dataclasses.asdict(scheme)}) == scheme
