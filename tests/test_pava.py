import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankadmm.errors import InvalidParameterError
from rankadmm.losses import (
    LossKind,
    block_minimize,
    block_minimize_cpt,
    singleton_minimize,
)
from rankadmm.oracle import chain_objective_reference, grid_dp_chain
from rankadmm.pava import merge_blocks, solve_z_subproblem
from rankadmm.weights import (
    AoRR,
    CPTValueDependent,
    ERM,
    ESRM,
    Explicit,
    Extremile,
    HumanAligned,
    ResolvedWeights,
    Superquantile,
    resolve,
)
from tests.reference import (
    block_hi,
    loss_subgradient_interval,
    pairwise_merge_chain,
    record_merges,
    stationarity_residual,
)


def nondecreasing(partition):
    values = partition.z[partition.lo]
    return bool(np.all(values[:-1] <= values[1:]))


def assert_matches_pairwise(partition, reference, tol):
    """Same index ranges as the (lo, hi, value) reference, values within tol."""
    assert list(zip(partition.lo.tolist(), block_hi(partition).tolist())) == [
        (lo, hi) for lo, hi, _ in reference
    ]
    assert max(abs(partition.z[partition.lo] - [v for *_, v in reference])) <= tol


def random_resolved(rng, n):
    sigma = rng.uniform(0.0, 1.0, size=n)
    sigma[rng.random(n) < 0.3] = 0.0
    return resolve(Explicit(sigma), n)


def test_zero_weights_identity(rng):
    m = np.sort(rng.standard_normal(6))
    resolved = resolve(Explicit(np.zeros(6)), 6)
    z = solve_z_subproblem(m, resolved, 1.0, LossKind.HINGE)
    assert z == pytest.approx(m)


def test_two_point_merge_example():
    resolved = resolve(Explicit([0.0, 5.0]), 2)
    z = solve_z_subproblem(np.array([0.0, 0.05]), resolved, 1.0, LossKind.HINGE)
    assert z == pytest.approx([-1.0, -1.0])


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
def test_against_grid_dp(kind, rho, rng):
    for _ in range(6):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal(n) * 2.0
        resolved = random_resolved(rng, n)
        z = solve_z_subproblem(m, resolved, rho, kind)
        _, ref_obj = grid_dp_chain(m, resolved, rho, kind)
        got = chain_objective_reference(z, m, resolved, rho, kind)
        assert abs(got - ref_obj) <= 1e-3
        order = np.argsort(m, kind="stable")
        assert np.all(np.diff(z[order]) >= 0.0)


def test_grid_dp_rejects_a_table_too_large():
    # a step near the smallest subnormal: the grid point count overflows
    with pytest.raises(InvalidParameterError, match="grid table"):
        grid_dp_chain(np.zeros(3), resolve(ERM(), 3), 1.0, LossKind.LOGISTIC, step=5e-324)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_grid_dp_rejects_a_step_not_finite_and_positive(step):
    with pytest.raises(InvalidParameterError, match="step must be finite and > 0"):
        grid_dp_chain(np.zeros(3), resolve(ERM(), 3), 1.0, LossKind.LOGISTIC, step=step)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_grid_dp_rejects_a_rho_not_finite_and_positive(rho):
    with pytest.raises(InvalidParameterError, match="rho must be finite and > 0"):
        grid_dp_chain(np.zeros(3), resolve(ERM(), 3), rho, LossKind.LOGISTIC)


CONSTANT_SCHEMES = {
    "erm": lambda n, draw: ERM(),
    "superquantile": lambda n, draw: Superquantile(draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))),
    "extremile": lambda n, draw: Extremile(draw(st.floats(1.0, 4.0))),
    "esrm": lambda n, draw: ESRM(draw(st.floats(0.1, 10.0))),
    # b near 1 keeps the S-shaped weights nonnegative
    "human_aligned": lambda n, draw: HumanAligned(draw(st.floats(0.1, 0.9)), 0.9),
    "aorr": lambda n, draw: AoRR(k=n, m=draw(st.integers(1, n - 1))),
    "explicit_zero_heavy": lambda n, draw: Explicit(
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0]), min_size=n, max_size=n))
    ),
}


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("scheme_name", sorted(CONSTANT_SCHEMES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_differential_against_grid_dp_with_ties(scheme_name, kind, data):
    n = data.draw(st.integers(2 if scheme_name == "aorr" else 1, 8))
    resolved = resolve(CONSTANT_SCHEMES[scheme_name](n, data.draw), n)
    # few distinct values, so targets tie and repeat
    pool = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=n))
    m = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    rho = data.draw(st.floats(0.25, 10.0))
    z = solve_z_subproblem(m, resolved, rho, kind)
    order = np.argsort(m, kind="stable")
    assert np.all(np.diff(z[order]) >= 0.0)
    # every optimal value lies in [min(m) - sum(sigma)/rho, max(m)]
    _, ref_obj = grid_dp_chain(
        m, resolved, rho, kind, pad_lo=1.0 + float(np.sum(resolved.sigma)) / rho
    )
    got = chain_objective_reference(z, m, resolved, rho, kind)
    assert got <= ref_obj + 1e-9
    assert ref_obj - got <= 1e-3


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("value_dependent", [False, True], ids=["explicit", "cpt"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_warm_order_matches_cold_stable_sort(kind, value_dependent, data):
    n = data.draw(st.integers(1, 30))
    values = st.floats(-3.0, 3.0)
    if data.draw(st.booleans()):
        # planted ties, signed zeros among them
        pool = data.draw(st.lists(st.sampled_from([-0.0, 0.0]) | values, min_size=1, max_size=n))
        m = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    else:
        m = np.array(data.draw(st.lists(values, min_size=n, max_size=n, unique=True)))
    if value_dependent:
        resolved = resolve(CPTValueDependent(B=0.0), n)
    else:
        sigma = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        resolved = resolve(Explicit(sigma), n)
    rho = data.draw(st.sampled_from([0.05, 1.0, 10.0]))
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    with pytest.MonkeyPatch.context() as mp:
        merges = record_merges(mp)
        cold = solve_z_subproblem(m, resolved, rho, kind)
        cold_count = len(merges)
        warm = solve_z_subproblem(m, resolved, rho, kind, order=order)
    assert warm.tobytes() == cold.tobytes()
    assert merges[cold_count:] == merges[:cold_count]
    assert np.array_equal(order, np.argsort(m, kind="stable"))


def test_in_order_input_single_pass(rng, monkeypatch):
    m = np.sort(rng.standard_normal(8))
    resolved = resolve(Explicit(np.full(8, 0.125)), 8)
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolved, 1.0, LossKind.LOGISTIC)
    values = partition.z
    assert np.all(np.diff(values) >= 0.0)
    # merges only happen when singleton minimizers go out of order
    singletons = [
        block_minimize(0.125, 1, float(mi), 1.0, LossKind.LOGISTIC)
        for mi in m
    ]
    if np.all(np.diff(singletons) >= 0.0):
        assert merges == []
        assert len(partition.lo) == 8


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_long_in_order_stretch_pushed_without_merges(kind, monkeypatch):
    # equal weights keep the singleton values in the targets' order
    n = 500
    resolved = resolve(ERM(), n)
    m = np.linspace(-3.0, 3.0, n)
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolved, 1.0, kind)
    assert merges == []
    assert np.array_equal(partition.lo, np.arange(n))
    assert np.array_equal(block_hi(partition), np.arange(n))
    assert np.array_equal(partition.z[partition.lo],
                          singleton_minimize(resolved.sigma, m, 1.0, kind))


def test_violation_directly_after_merged_block(monkeypatch):
    # hinge singletons m - s: 0.0, -0.4, -0.3, 1.0.  Index 2 is in order
    # with its left singleton but below the block {0, 1} at -0.2.
    sigma = np.array([0.0, 0.5, 0.5, 0.0])
    m = np.array([0.0, 0.1, 0.2, 1.0])
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolve(Explicit(sigma), 4), 1.0, LossKind.HINGE)
    # {0, 1} is never valued: it absorbs 2, and {0, 1, 2} takes the one solve
    assert [c.count for c in merges] == [3]
    assert partition.lo.tolist() == [0, 3]
    assert [c.v for c in merges] == pytest.approx([-0.7 / 3.0])
    assert_matches_pairwise(partition, pairwise_merge_chain(m, sigma, 1.0, LossKind.HINGE), 0.0)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_long_in_order_stretch_folds_into_one_violator(kind, monkeypatch):
    # zero weights hold 199 singletons at their in-order targets; the last
    # one's weight puts it below most of them.  Each fold into it is a
    # slope-sign test, and the block is solved once, when it is pushed.
    n = 200
    m = np.linspace(0.0, 1.0, n)
    resolved = resolve(Explicit(np.append(np.zeros(n - 1), 50.0)), n)
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolved, 1.0, kind)
    assert len(merges) == 1
    assert merges[0].count >= 100
    assert partition.lo.tolist() == [*range(n - merges[0].count), n - merges[0].count]
    reference = pairwise_merge_chain(m, resolved.sigma, 1.0, kind)
    assert_matches_pairwise(partition, reference, 1e-12)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_all_zero_weights_take_targets(kind, rng, monkeypatch):
    n = 50
    m = np.sort(np.round(rng.standard_normal(n), 1))  # with ties
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolve(Explicit(np.zeros(n)), n), 1.0, kind)
    assert merges == []
    assert len(partition.lo) == n
    assert np.array_equal(partition.z, m)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_single_sample(kind):
    partition = merge_blocks(np.array([0.3]), resolve(ERM(), 1), 2.0, kind)
    assert partition.lo.tolist() == [0] and block_hi(partition).tolist() == [0]
    assert partition.z[0] == pytest.approx(
        block_minimize(1.0, 1, 0.3, 2.0, kind), abs=1e-12
    )


def test_multi_merge_matches_classic_three_singletons(monkeypatch):
    # increasing weights on nearly equal targets force strictly decreasing
    # singleton values, so the whole run pools into one block and one solve
    sigma = np.array([0.0, 2.0, 6.0])
    resolved = resolve(Explicit(sigma), 3)
    m_sorted = np.array([0.0, 0.1, 0.2])
    singles = [
        block_minimize(s, 1, mi, 1.0, LossKind.LOGISTIC)
        for s, mi in zip(sigma, m_sorted)
    ]
    assert singles[0] > singles[1] > singles[2]
    merges = record_merges(monkeypatch)
    refined = merge_blocks(m_sorted, resolved, 1.0, LossKind.LOGISTIC)
    classic = pairwise_merge_chain(m_sorted, sigma, 1.0, LossKind.LOGISTIC)
    assert_matches_pairwise(refined, classic, 1e-9)
    assert len(refined.lo) == 1
    assert len(merges) == 1  # solved once, when pushed
    assert singles[2] - 1e-9 <= merges[0].v <= singles[0] + 1e-9


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_refined_equals_classic_random(kind, rng):
    for _ in range(40):
        n = int(rng.integers(2, 51))
        m = np.sort(rng.standard_normal(n) * rng.uniform(0.3, 3.0))
        resolved = random_resolved(rng, n)
        rho = float(rng.choice([0.1, 1.0, 10.0]))
        a = merge_blocks(m, resolved, rho, kind)
        b = pairwise_merge_chain(m, resolved.sigma, rho, kind)
        assert_matches_pairwise(a, b, 1e-9)


def test_partition_values_self_consistent(rng):
    n = 50
    m = np.sort(rng.standard_normal(n))
    resolved = random_resolved(rng, n)
    partition = merge_blocks(m, resolved, 1.0, LossKind.LOGISTIC)
    assert nondecreasing(partition)
    for lo, hi, value in zip(partition.lo, block_hi(partition), partition.z[partition.lo]):
        s = float(np.sum(resolved.sigma[lo : hi + 1]))
        msum = float(np.sum(m[lo : hi + 1]))
        v = block_minimize(s, int(hi - lo + 1), msum, 1.0, LossKind.LOGISTIC)
        assert value == pytest.approx(v, abs=1e-12)
    assert stationarity_residual(partition, resolved, m, 1.0, LossKind.LOGISTIC) <= 1e-8


def test_merge_interval_property(rng, monkeypatch):
    merges = record_merges(monkeypatch)
    for _ in range(50):
        n = int(rng.integers(3, 60))
        m = np.sort(rng.standard_normal(n) * rng.uniform(0.3, 2.0))
        resolved = random_resolved(rng, n)
        merge_blocks(m, resolved, float(rng.choice([0.5, 1.0, 5.0])),
                     LossKind.HINGE if rng.random() < 0.5 else LossKind.LOGISTIC)
    assert merges, "expected merges in randomized runs"
    for merge in merges:
        assert merge.v_lo - 1e-9 <= merge.v <= merge.v_hi + 1e-9


@pytest.mark.parametrize(
    "scheme", [Superquantile(0.9), AoRR(k=5, m=2), Explicit([0, 1, 0, 2, 0, 0, 3, 0, 0, 4])]
)
def test_zero_weight_singletons_skip_scalar_solve(scheme, monkeypatch, rng):
    merges = record_merges(monkeypatch)
    resolved = resolve(scheme, 10)
    m = np.sort(rng.standard_normal(10))
    partition = merge_blocks(m, resolved, 1.0, LossKind.LOGISTIC)
    # singletons are solved in bulk: merge solves are the only scalar calls
    assert all(merge.count >= 2 for merge in merges)
    counts = np.diff(np.append(partition.lo, 10))
    for lo, count, value in zip(partition.lo, counts, partition.z[partition.lo]):
        if count == 1 and resolved.sigma[lo] == 0.0:
            assert value == m[lo]


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_cpt_singletons_skip_scalar_solve(kind, monkeypatch, rng):
    merges = record_merges(monkeypatch)
    resolved = resolve(CPTValueDependent(B=0.0), 200)
    m = np.sort(rng.standard_normal(200) * 2.0)
    merge_blocks(m, resolved, 0.01, kind)
    # the singletons are solved in one array pass: merge solves only
    assert merges
    assert min(merge.count for merge in merges) >= 2


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_fast_path_identical_to_generic(kind, rng):
    # ranked-range weights: the zero-weight singletons skip their scalar
    # solves, and the result matches the textbook pairwise loop
    for _ in range(25):
        n = int(rng.integers(3, 201))
        k = int(rng.integers(2, n + 1))
        mm = int(rng.integers(1, k))
        resolved = resolve(AoRR(k=k, m=mm), n)
        m = np.sort(rng.standard_normal(n) * rng.uniform(0.5, 2.0))
        rho = float(rng.choice([0.1, 1.0, 10.0]))
        fast = merge_blocks(m, resolved, rho, kind)
        generic = pairwise_merge_chain(m, resolved.sigma, rho, kind)
        assert_matches_pairwise(fast, generic, 1e-12)


def test_topk_tiny_against_grid_dp(rng):
    # single positive weight at the top rank
    resolved = resolve(Explicit([0.0, 0.0, 0.0, 1.0]), 4)
    m = np.array([0.4, -1.2, 0.1, -0.3])
    z = solve_z_subproblem(m, resolved, 1.0, LossKind.HINGE)
    _, ref_obj = grid_dp_chain(m, resolved, 1.0, LossKind.HINGE)
    assert chain_objective_reference(z, m, resolved, 1.0, LossKind.HINGE) <= ref_obj + 1e-3


def test_fast_path_in_order_no_merges(rng, monkeypatch):
    resolved = resolve(AoRR(k=3, m=1, ), 6)
    m = np.linspace(-1.0, 4.0, 6)
    merges = record_merges(monkeypatch)
    partition = merge_blocks(m, resolved, 1.0, LossKind.LOGISTIC)
    if nondecreasing(partition) and len(partition.lo) == 6:
        assert merges == []


# -- two-piece (value-dependent) cases ----------------------------------------


def cpt_block_value(resolved, lo, hi, m_sorted, rho, kind):
    s_low = float(np.sum(resolved.sigma_low[lo : hi + 1]))
    s_high = float(np.sum(resolved.sigma_high[lo : hi + 1]))
    msum = float(np.sum(m_sorted[lo : hi + 1]))
    count = hi - lo + 1
    return block_minimize_cpt(s_low, s_high, count, msum, rho, resolved.reference, kind)


def prefix_kkt_feasible(resolved, lo, hi, v, m_sorted, rho, kind):
    """Interval-propagation check that per-index subgradients summing to 0
    with nonpositive prefixes exist inside the block."""
    glo, ghi = [], []
    for i in range(lo, hi + 1):
        if resolved.is_value_dependent:
            s = resolved.sigma_low[i] if v <= resolved.reference else resolved.sigma_high[i]
        else:
            s = resolved.sigma[i]
        a, b = loss_subgradient_interval(kind, v)
        lin = rho * (v - m_sorted[i])
        glo.append(s * a + lin)
        ghi.append(s * b + lin)
    reach_lo = reach_hi = 0.0
    count = hi - lo + 1
    for j in range(count):
        reach_lo += glo[j]
        reach_hi += ghi[j]
        if j < count - 1:
            reach_hi = min(reach_hi, 0.0)  # prefix must be <= 0
            if reach_lo > 0.0:
                return False
        else:
            if not (reach_lo - 1e-9 <= 0.0 <= reach_hi + 1e-9):
                return False
    return True


def enumerate_first_order_points(resolved, m_sorted, rho, kind):
    """All isotonic blockwise-stationary candidates by partition
    enumeration (2^(n-1) partitions), filtered by the prefix condition."""
    n = len(m_sorted)
    candidates = []
    for cuts in itertools.product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        blocks = list(zip(bounds[:-1], [b - 1 for b in bounds[1:]]))
        values = [
            cpt_block_value(resolved, lo, hi, m_sorted, rho, kind) for lo, hi in blocks
        ]
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            continue
        if not all(
            prefix_kkt_feasible(resolved, lo, hi, v, m_sorted, rho, kind)
            for (lo, hi), v in zip(blocks, values)
        ):
            continue
        z = np.concatenate([np.full(hi - lo + 1, v) for (lo, hi), v in zip(blocks, values)])
        candidates.append(z)
    return candidates


def test_cpt_degenerate_reference_points(rng):
    n = 7
    m = rng.standard_normal(n)
    base = CPTValueDependent(gamma=0.61, delta=0.69, B=0.0)
    low_res = resolve(base, n)
    # reference far right: every value sits in the low branch
    far_low = resolve(CPTValueDependent(0.61, 0.69, B=1e9), n)
    z_low = solve_z_subproblem(m, far_low, 1.0, LossKind.LOGISTIC)
    z_plain = solve_z_subproblem(m, resolve(Explicit(low_res.sigma_low), n), 1.0, LossKind.LOGISTIC)
    assert z_low == pytest.approx(z_plain, abs=1e-10)
    # reference far left: every value sits in the high branch
    far_high = resolve(CPTValueDependent(0.61, 0.69, B=-1e9), n)
    z_high = solve_z_subproblem(m, far_high, 1.0, LossKind.LOGISTIC)
    z_plain_high = solve_z_subproblem(
        m, resolve(Explicit(low_res.sigma_high), n), 1.0, LossKind.LOGISTIC
    )
    assert z_high == pytest.approx(z_plain_high, abs=1e-10)


@pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.HINGE])
def test_cpt_first_order_and_competitive(kind, rng):
    for trial in range(8):
        n = int(rng.integers(2, 7))
        m = np.sort(rng.standard_normal(n))
        scheme = CPTValueDependent(gamma=0.61, delta=0.69, B=float(rng.uniform(-1, 1)))
        resolved = resolve(scheme, n)
        partition = merge_blocks(m, resolved, 1.0, kind)
        assert nondecreasing(partition)
        res = stationarity_residual(partition, resolved, m, 1.0, kind)
        assert res <= 1e-6
        z = partition.z
        obj = chain_objective_reference(z, m, resolved, 1.0, kind)
        for cand in enumerate_first_order_points(resolved, m, 1.0, kind):
            cand_obj = chain_objective_reference(cand, m, resolved, 1.0, kind)
            assert obj <= cand_obj + 1e-8


def test_solve_rejects_bad_inputs(rng):
    resolved = resolve(Explicit([0.5, 0.5]), 2)
    with pytest.raises(InvalidParameterError):
        solve_z_subproblem(np.array([np.nan, 0.0]), resolved, 1.0, LossKind.HINGE)
    with pytest.raises(InvalidParameterError):
        solve_z_subproblem(np.zeros(2), resolved, 0.0, LossKind.HINGE)
    with pytest.raises(InvalidParameterError):
        solve_z_subproblem(np.zeros(3), resolved, 1.0, LossKind.HINGE)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("value_dependent", [False, True], ids=["explicit", "cpt"])
def test_overflowing_merge_sums_raise(kind, value_dependent):
    # s/rho = 1e307 per unit weight: the singletons 5e307, 4e307, ..., 1e307
    # fall, and the merged target sum 2.5e308 overflows
    m = np.full(5, 5e307)
    sigma = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    if value_dependent:
        resolved = ResolvedWeights(5, None, sigma, sigma, 0.0)
    else:
        resolved = resolve(Explicit(sigma), 5)
    # the CPT singletons' piece values overflow on the way (v*v); harmless
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            merge_blocks(m, resolved, 1e-307, kind)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            solve_z_subproblem(m, resolved, 1e-307, kind)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("scheme", [ERM(), Superquantile(0.5), CPTValueDependent(B=1e308)],
                         ids=["erm", "superquantile", "cpt"])
def test_targets_near_the_float_max_give_finite_z_or_raise(kind, scheme):
    # s/rho ~ 1e306 or more: both Newton bracket ends lie above ~9e307
    m = np.array([1e308, 9e307, 1e308, 1.1e308, 1.5e308])
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            z = solve_z_subproblem(m, resolve(scheme, 5), 1e-307, kind)
        except InvalidParameterError as exc:
            assert "non-finite" in str(exc)
            return
    assert np.all(np.isfinite(z))


def test_inverse_permutation(rng):
    n = 9
    m = rng.standard_normal(n)
    resolved = resolve(Superquantile(0.4), n)
    z = solve_z_subproblem(m, resolved, 2.0, LossKind.LOGISTIC)
    order = np.argsort(m, kind="stable")
    z_byhand = merge_blocks(m[order], resolved, 2.0, LossKind.LOGISTIC).z
    assert z[order] == pytest.approx(z_byhand)
