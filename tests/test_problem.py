import numpy as np
import pytest
import scipy.sparse as sp

from rankadmm.errors import DimensionError, InvalidParameterError
from rankadmm.losses import LossKind, loss_value, loss_value_vec
from rankadmm.problem import Problem, rank_loss_value, sorted_rank_loss
from rankadmm.regularizers import l2
from rankadmm.weights import AoRR, CPTValueDependent, ERM, Explicit, Superquantile, resolve


def test_apply_d_single_row():
    p = Problem(X=[[1.0, 2.0]], y=[1.0])
    assert p.apply_D([3.0, 1.0]) == pytest.approx([-5.0])


def test_apply_d_sign_flip_identity():
    p = Problem(X=np.eye(2), y=[-1.0, -1.0])
    assert p.apply_D([2.0, 3.0]) == pytest.approx([2.0, 3.0])


def test_apply_d_matches_naive_double_loop(rng):
    X = rng.standard_normal((5, 3))
    y = rng.choice([-1.0, 1.0], size=5)
    w = rng.standard_normal(3)
    p = Problem(X=X, y=y)
    expected = np.empty(5)
    for i in range(5):
        acc = 0.0
        for j in range(3):
            acc += X[i, j] * w[j]
        expected[i] = -y[i] * acc
    assert p.apply_D(w) == pytest.approx(expected, abs=1e-14)


def test_apply_d_dense_sparse_agree(rng):
    X = rng.standard_normal((30, 6))
    X[rng.random((30, 6)) < 0.5] = 0.0
    y = rng.choice([-1.0, 1.0], size=30)
    w = rng.standard_normal(6)
    dense = Problem(X=X, y=y).apply_D(w)
    sparse = Problem(X=sp.csr_matrix(X), y=y).apply_D(w)
    assert np.linalg.norm(dense - sparse) <= 1e-12 * max(np.linalg.norm(dense), 1.0)


def test_objective_hinge_all_zero():
    # margins -2 put both samples on the flat side of the hinge
    p = Problem(X=[[2.0], [2.0]], y=[1.0, 1.0], loss=LossKind.HINGE)
    assert p.objective([1.0]) == pytest.approx(0.0)


def test_objective_weighted_identical_entries():
    p = Problem(
        X=[[1.0], [1.0]],
        y=[1.0, 1.0],
        loss=LossKind.LOGISTIC,
        weights=Explicit([0.0, 1.0]),
    )
    assert p.objective([0.0]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_objective_matches_sort_and_dot_oracle(rng):
    X = rng.standard_normal((4, 3))
    y = rng.choice([-1.0, 1.0], size=4)
    w = rng.standard_normal(3)
    p = Problem(X=X, y=y, loss=LossKind.LOGISTIC, weights=Superquantile(0.5))
    z = -y * (X @ w)
    losses = sorted(loss_value(LossKind.LOGISTIC, v) for v in z)
    sigma = resolve(Superquantile(0.5), 4).sigma
    expected = float(np.dot(sigma, losses))
    assert p.objective(w) == pytest.approx(expected, abs=1e-12)


def test_objective_includes_regularizer():
    p = Problem(X=[[1.0]], y=[1.0], weights=ERM(), regularizer=l2(2.0))
    w = np.array([3.0])
    assert p.objective(w) == pytest.approx(loss_value(LossKind.LOGISTIC, -3.0) + 9.0)


def test_permutation_invariance(rng):
    X = rng.standard_normal((12, 4))
    y = rng.choice([-1.0, 1.0], size=12)
    w = rng.standard_normal(4)
    perm = rng.permutation(12)
    a = Problem(X=X, y=y, weights=Superquantile(0.3)).objective(w)
    b = Problem(X=X[perm], y=y[perm], weights=Superquantile(0.3)).objective(w)
    assert a == pytest.approx(b, rel=1e-12)


def test_objective_nonnegative_for_nonnegative_weights(rng):
    p = Problem(X=rng.standard_normal((9, 3)), y=rng.choice([-1.0, 1.0], size=9),
                loss=LossKind.HINGE, weights=Superquantile(0.4), regularizer=l2(0.5))
    for _ in range(10):
        assert p.objective(rng.standard_normal(3) * 3) >= 0.0


def test_cpt_objective_uses_sorted_margins():
    scheme = CPTValueDependent(gamma=0.61, delta=0.69, B=0.0)
    p = Problem(X=[[1.0], [-2.0], [0.5]], y=[1.0, 1.0, 1.0],
                loss=LossKind.LOGISTIC, weights=scheme)
    w = np.array([1.0])
    z = p.apply_D(w)
    order = np.argsort(z)
    z_sorted = z[order]
    resolved = resolve(scheme, 3)
    sigma = np.where(z_sorted <= 0.0, resolved.sigma_low, resolved.sigma_high)
    expected = sum(s * loss_value(LossKind.LOGISTIC, v) for s, v in zip(sigma, z_sorted))
    assert p.objective(w) == pytest.approx(expected, abs=1e-12)


def stable_sort_rank_loss(z, resolved, kind):
    """The rank loss with every sort stable, ties in original index order."""
    losses = loss_value_vec(kind, z)
    if resolved.is_value_dependent:
        order = np.argsort(z, kind="stable")
        return float(resolved.sigma_for(z[order]) @ losses[order])
    return float(resolved.sigma @ np.sort(losses, kind="stable"))


def tied_margins(rng, n):
    """Few distinct margins, signed zeros among them, and hinge losses that
    tie at 0 below the kink."""
    z = rng.choice([-3.0, -2.0, -1.5, -0.5, -0.0, 0.0, 0.25, 1.0], size=n)
    z[rng.random(n) < 0.2] = rng.standard_normal() * 40.0
    return z


def _descending_pairs():
    """Adjacent floats u < v in (0.1, 0.5), as (u, v) rows, whose rounded
    logistic losses descend: about one neighbour pair in ten there."""
    u = np.concatenate([c + np.spacing(c) * np.arange(4096) for c in (0.1, 0.2, 0.3, 0.4)])
    losses = loss_value_vec(LossKind.LOGISTIC, u)
    i = np.flatnonzero(losses[1:] < losses[:-1])
    return np.column_stack([u[i], u[i + 1]])


DESCENDING_PAIRS = _descending_pairs()


def band_edge_margins(rng, n):
    """Pairs of margins one ulp apart whose rounded logistic losses
    descend, so that a band edge among them often splits a pair.  A random
    share of the other margins lies below the pairs (ties, signed zeros and
    deep negatives to -800, where logistic losses are subnormal or 0) and
    the rest above, so over the draws each band's edges fall among them."""
    pairs = rng.choice(DESCENDING_PAIRS, size=n // 4).ravel()
    below = int(rng.integers(0, n - pairs.size + 1))
    low = rng.choice([-800.0, -745.0, -709.0, -0.0, 0.0], size=below)
    low[low < 0.0] += np.spacing(-low[low < 0.0]) * rng.integers(-8, 9, size=np.sum(low < 0.0))
    high = rng.choice([0.5, 40.0], size=n - pairs.size - below)
    return rng.permutation(np.concatenate([low, pairs, high]))


N_MARGINS = 400


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize(
    "scheme",
    [
        Superquantile(0.0), Superquantile(0.7), Superquantile(0.9), AoRR(k=150, m=10),
        # one-sided bands, each with its weight on the rank at its edge
        Explicit([0.0] * 300 + [1.0] + [1e-3] * 99),
        Explicit([1e-3] * 99 + [1.0] + [0.0] * 300),
        Explicit([0.0] * N_MARGINS),
        CPTValueDependent(B=0.0),
    ],
    ids=["superquantile_0", "superquantile", "superquantile_0.9", "aorr", "explicit_top",
         "explicit_bottom", "explicit_zero", "cpt"],
)
def test_rank_loss_bitwise_equals_stable_sort_on_ties(scheme, kind, rng):
    n = N_MARGINS
    resolved = resolve(scheme, n)
    for draw in [tied_margins] * 20 + [band_edge_margins] * 20:
        z = draw(rng, n)
        got, expected = rank_loss_value(z, resolved, kind), stable_sort_rank_loss(z, resolved, kind)
        assert got.hex() == expected.hex()
        # any ascending order of the margins, as the outer loop passes them
        ascending = z[np.lexsort((rng.random(n), z))]
        assert sorted_rank_loss(ascending, resolved, kind).hex() == expected.hex()


def test_label_validation():
    with pytest.raises(InvalidParameterError):
        Problem(X=[[1.0]], y=[2.0])
    with pytest.raises(InvalidParameterError):
        Problem(X=[[np.inf]], y=[1.0])


def test_dimension_validation():
    with pytest.raises(DimensionError):
        Problem(X=[[1.0, 2.0]], y=[1.0, -1.0])
    p = Problem(X=[[1.0, 2.0]], y=[1.0])
    with pytest.raises(DimensionError):
        p.apply_D([1.0])
    with pytest.raises(DimensionError):
        rank_loss_value(np.zeros(3), p.resolved_weights, LossKind.HINGE)
