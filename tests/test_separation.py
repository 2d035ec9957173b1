import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurmin import (
    Dataset,
    LossKind,
    PreconditionViolated,
    SeparationResult,
    descent_constants_at,
    fit_linear,
    separate,
)
from spurmin import separation
from spurmin.errors import SizingFailed
from spurmin.separation import _group_bounds, check_separation, shifted_keys
from spurmin.separation import MAX_HALVINGS, admissible_constants


def random_instance(rng, n=None, d=None):
    """Zero-sum integer u (nonzero), small-integer v with deliberate ties,
    distinct integer-grid points."""
    n = n or int(rng.integers(2, 9))
    d = d or int(rng.integers(1, 4))
    while True:
        u = rng.integers(-3, 4, size=n).astype(float)
        u[-1] = -np.sum(u[:-1])
        if np.any(u != 0.0) and abs(u[-1]) <= 3:
            break
    v = rng.integers(0, 3, size=n).astype(float)
    while True:
        xs = rng.integers(-4, 5, size=(d, n)).astype(float)
        if len({tuple(c) for c in xs.T}) == n:
            break
    return u, v, xs


def oracle_valid(I_mask, beta, u, v, xs, u_tol=1e-9):
    """Brute-force validity: (1.1) for all sufficiently small alpha means
    strict lexicographic order on (v, -beta.x) across the split; (1.2) is a
    nonzero u-sum over I."""
    n = len(u)
    I = [i for i in range(n) if I_mask[i]]
    J = [j for j in range(n) if not I_mask[j]]
    if not I or not J:
        return False
    if abs(sum(u[i] for i in I)) <= u_tol:
        return False
    bx = beta @ xs
    for i in I:
        for j in J:
            if not (v[i] < v[j] or (v[i] == v[j] and bx[i] > bx[j])):
                return False
    return True


def oracle_exists(u, v, xs):
    """Exhaustive search over all 2^n - 2 splits and beta in {0} union {x_i}."""
    n = len(u)
    betas = [np.zeros(xs.shape[0])] + [xs[:, i] for i in range(n)]
    for bits in range(1, 2**n - 1):
        mask = [(bits >> i) & 1 == 1 for i in range(n)]
        for beta in betas:
            if oracle_valid(mask, beta, u, v, xs):
                return True
    return False


def returned_is_oracle_valid(res: SeparationResult, u, v, xs):
    mask = np.zeros(len(u), dtype=bool)
    mask[res.I_indices] = True
    return oracle_valid(mask, res.beta, u, v, xs)


class TestSeparateExamples:
    def test_trivial_branch(self):
        res = separate(np.array([1.0, -1.0]), np.array([0.0, 1.0]), np.array([[2.0, 1.0]]))
        assert res.trivial_branch
        assert res.I_indices.tolist() == [0]
        assert res.perm[res.l_prime:].tolist() == [1]
        assert np.all(res.beta == 0.0)

    def test_single_group_max_norm(self):
        res = separate(np.array([1.0, -1.0]), np.array([0.0, 0.0]), np.array([[2.0, 1.0]]))
        assert not res.trivial_branch
        assert res.l_prime == 1
        assert res.I_indices.tolist() == [0]
        assert res.beta.tolist() == [2.0]
        # -4a < -2a for every positive a, and the I-sum is 1
        keys = shifted_keys(res, np.array([0.0, 0.0]), np.array([[2.0, 1.0]]), 0.1)
        assert keys[0] < keys[1]

    def test_xor_row(self, xor, xor_fit):
        u = xor_fit.v[0]
        v = xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        assert not res.trivial_branch
        assert res.l_prime == 1
        assert res.perm[0] == 3  # the max-norm corner (1,1)
        assert res.beta.tolist() == [1.0, 1.0]
        assert abs(np.sum(u[res.I_indices]) - 0.5) <= 1e-12

    def test_preconditions(self):
        xs = np.array([[0.0, 1.0]])
        with pytest.raises(PreconditionViolated):
            separate(np.array([1.0, 1.0]), np.zeros(2), xs)  # nonzero sum
        with pytest.raises(PreconditionViolated):
            separate(np.zeros(2), np.zeros(2), xs)  # u = 0

    def test_tie_tolerance_merges_fp_noise(self):
        v = np.array([0.5, 0.5 + 1e-16, 0.5 - 1e-16, 0.5])
        u = np.array([0.5, -0.5, -0.5, 0.5])
        xs = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        res = separate(u, v, xs)
        assert res.group_bounds == (4,)
        assert res.alpha_max == 1.0


class TestSizing:
    def test_xor_constants(self, xor, xor_fit):
        u, v = xor_fit.v[0], xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        c = next(admissible_constants(res, u, v, xor.X, 1.0))
        # interior split: |gamma| is half the midgap, and the margin is strict
        assert abs(abs(c.gamma) - 0.5 * abs(c.midgap)) <= 1e-15
        assert c.margin > 0
        # first-order decrease needs gamma aligned with slope_ratio * sum_I(u)
        assert c.gamma > 0
        assert c.eta1 == pytest.approx(v[res.perm[res.l_prime - 1]] - 2 * c.alpha + c.midgap, abs=1e-12)

    def test_group_end_split_uses_alpha(self):
        # trivial branch: split at a group boundary, so |gamma| = alpha
        u = np.array([1.0, -1.0])
        v = np.array([0.0, 1.0])
        xs = np.array([[2.0, 1.0]])
        res = separate(u, v, xs)
        c = next(admissible_constants(res, u, v, xs, 1.0))
        assert abs(c.gamma) == c.alpha
        assert c.margin > 0

    def test_sign_flips_with_drive(self):
        u = np.array([-1.0, 1.0])
        v = np.array([0.0, 0.0])
        xs = np.array([[2.0, 1.0]])
        res = separate(u, v, xs)
        # sum_I u = -1; positive slope ratio pushes gamma negative
        c = descent_constants_at(res, u, v, xs, slope_ratio=1.0, alpha=0.1)
        assert c.gamma < 0
        c2 = descent_constants_at(res, u, v, xs, slope_ratio=-1.0, alpha=0.1)
        assert c2.gamma > 0
        # balanced rule tracks sum_I u alone
        c3 = descent_constants_at(res, u, v, xs, slope_ratio=None, alpha=0.1)
        assert c3.gamma < 0

    def test_gap_formula_at_returned_alpha(self, rng):
        # the realized gap equals the case formula at the sized alpha
        for _ in range(50):
            u, v, xs = random_instance(rng)
            res = separate(u, v, xs)
            c = next(admissible_constants(res, u, v, xs, 1.0))
            keys = shifted_keys(res, v, xs, c.alpha)
            gap = float(np.min(keys[res.l_prime :]) - keys[res.l_prime - 1])
            group_end = res.group_bounds[res.t_group - 1]
            if res.l_prime < group_end:
                formula = float(np.min(keys[res.l_prime : group_end]) - keys[res.l_prime - 1])
            else:
                formula = gap
            assert abs(gap - formula) <= 1e-12 * (1.0 + abs(gap))
            assert c.margin > 0


class TestOracleEquivalence:
    def test_returned_split_is_valid_120_instances(self, rng):
        for _ in range(120):
            u, v, xs = random_instance(rng)
            res = separate(u, v, xs)
            assert returned_is_oracle_valid(res, u, v, xs)
            assert oracle_exists(u, v, xs)
            # (1.1) at sampled alphas, (1.2) exactly
            for a in rng.uniform(0.0, res.alpha_max, size=25):
                if a > 0:
                    assert check_separation(res, u, v, xs, a)
            assert abs(np.sum(u[res.I_indices])) > 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_conclusions_hold(self, seed):
        rng = np.random.default_rng(seed)
        u, v, xs = random_instance(rng)
        res = separate(u, v, xs)
        assert check_separation(res, u, v, xs, res.alpha_max)
        assert check_separation(res, u, v, xs, res.alpha_max / 7.0)
        assert abs(np.sum(u[res.I_indices])) > 0
        assert returned_is_oracle_valid(res, u, v, xs)


# The pair-by-pair alpha scan without the beta = 0 short-circuit, kept as an
# oracle for it.


def oracle_alpha_max(perm, l_prime, beta, v, xs, bounds):
    n = len(perm)
    group_of = np.empty(n, dtype=int)
    start = 0
    for gid, end in enumerate(bounds):
        group_of[start:end] = gid
        start = end
    bound = np.inf
    bx = beta @ xs if np.any(beta) else np.zeros(xs.shape[1])
    for pi in range(l_prime):
        for pj in range(l_prime, n):
            if group_of[pi] == group_of[pj]:
                continue
            i, j = perm[pi], perm[pj]
            dv = v[j] - v[i]
            dx = bx[j] - bx[i]
            if dx > 0:
                bound = min(bound, dv / dx)
    if not np.isfinite(bound):
        return 1.0
    return min(1.0, 0.5 * bound)


def oracle_alpha(res, v, xs):
    return oracle_alpha_max(res.perm, res.l_prime, res.beta, v, xs, list(res.group_bounds))


def tiered_instance(rng, n, noise=0.0):
    """A zero-u first level, a small mixed-u second level holding the split
    point, and a zero-sum third level: every group-boundary prefix of u
    vanishes, so the split is nontrivial and falls mid-sample."""
    n1 = n // 2 - 2
    n2 = 8
    n3 = n - n1 - n2
    v = np.concatenate([np.zeros(n1), np.ones(n2), np.full(n3, 2.0)])
    v = v + noise * rng.standard_normal(n) * (1.0 + v)
    u = np.zeros(n)
    u[n1 : n1 + n2] = rng.standard_normal(n2)
    u[n1 : n1 + n2] -= np.mean(u[n1 : n1 + n2])
    u[n1 + n2 :] = rng.standard_normal(n3)
    u[n1 + n2 :] -= np.mean(u[n1 + n2 :])
    xs = rng.standard_normal((2, n))
    return u, v, xs


class TestAlphaScan:
    def test_small_random_instances(self, rng):
        nontrivial = 0
        for _ in range(300):
            u, v, xs = random_instance(rng)
            res = separate(u, v, xs)
            assert res.alpha_max == oracle_alpha(res, v, xs)
            nontrivial += not res.trivial_branch
        assert nontrivial > 0

    def test_trivial_branch_short_circuit(self, rng):
        for n in (50, 400):
            u = rng.standard_normal(n)
            u -= np.mean(u)
            v = rng.integers(0, 5, size=n).astype(float)
            xs = rng.standard_normal((3, n))
            res = separate(u, v, xs)
            assert res.trivial_branch
            assert np.all(res.beta == 0.0)
            assert res.alpha_max == oracle_alpha(res, v, xs) == 1.0

    def test_row_scan_matches_the_pairwise_loop(self):
        # _alpha_max scans each row of I against all of J at once; the
        # pairwise loop is the oracle.  beta is forced nonzero so the scan
        # runs, and v, xs, the split and the groups are drawn freely, so
        # cross-group quotients of either sign, ties and no bound all occur
        rng = np.random.default_rng(19)
        bounded = 0
        for _ in range(400):
            n = int(rng.integers(2, 24))
            d = int(rng.integers(1, 4))
            v = rng.integers(-3, 4, size=n) * rng.choice([1.0, 0.25])
            v = v + rng.choice([0.0, 1e-12]) * rng.standard_normal(n)
            xs = rng.standard_normal((d, n))
            if rng.random() < 0.3:
                xs = np.round(xs)
            beta = rng.standard_normal(d)
            beta[rng.random(d) < 0.3] = 0.0
            beta[int(rng.integers(d))] = rng.choice([1.0, -0.5, 2.0])
            perm = rng.permutation(n)
            l_prime = int(rng.integers(1, n))
            cuts = sorted(set(rng.integers(1, n, size=int(rng.integers(0, 4))).tolist()))
            bounds = cuts + [n]
            got = separation._alpha_max(perm, l_prime, beta, v, xs, bounds)
            want = oracle_alpha_max(perm, l_prime, beta, v, xs, bounds)
            assert float(got).hex() == float(want).hex()
            bounded += want < 1.0
        assert bounded > 50

    def test_row_scan_skips_a_nan_quotient_as_the_pairwise_loop_does(self):
        # at the float64 edge dv = dx = inf for one pair, whose quotient is
        # NaN; the running min skips it and the other pair bounds alpha
        perm, beta, bounds = np.arange(3), np.array([1.0]), [1, 2, 3]
        v, xs = np.array([-1e308, 1e308, 5.0]), np.array([[-1e308, 1e308, 1.0]])
        with np.errstate(all="ignore"):
            want = oracle_alpha_max(perm, 1, beta, v, xs, bounds)
            got = separation._alpha_max(perm, 1, beta, v, xs, bounds)
        assert want == 0.5
        assert float(got).hex() == float(want).hex()

    def test_float_noise_ties(self):
        hit_tied = 0
        for seed in range(6):
            rng = np.random.default_rng([seed, 7])
            u, v, xs = tiered_instance(rng, 120, noise=1e-16)
            res = separate(u, v, xs)
            assert not res.trivial_branch
            assert len(res.group_bounds) == 3
            assert res.alpha_max == oracle_alpha(res, v, xs)
            assert check_separation(res, u, v, xs, res.alpha_max)
            hit_tied += len(set(v[res.perm].tolist())) > 3
        assert hit_tied > 0

    def test_gap_equal_to_tolerance_stays_tied(self):
        # a gap of exactly tie_tol * (1 + |v|) does not split a group
        v_sorted = np.array([0.0, 1e-9, 1.0, 1.0 + 2e-9, 3.0])
        assert _group_bounds(v_sorted, 1e-9) == [2, 4, 5]

    def test_tied_split_shape(self):
        # 3 levels of 1000 samples, x2 symmetric inside each level: the fit
        # ties within a level and the split is the first level boundary
        rng = np.random.default_rng(2)
        x1 = np.repeat([0.0, 1.0, 2.0], 1000)
        m = rng.uniform(0.1, 3.0, size=(3, 500))
        x2 = np.concatenate([np.concatenate([row, -row]) for row in m])
        y = np.array([0.0, 1.0, 3.0])[x1.astype(int)] + 0.1 * x2 * x2
        data = Dataset(np.vstack([x1, x2]), y[None, :])
        fit = fit_linear(data, LossKind.SQUARED)
        res = separate(fit.v[0], fit.y_tilde[0], data.X)
        assert res.trivial_branch
        assert res.l_prime == 1000
        assert res.alpha_max == 1.0

    @pytest.mark.parametrize("which", ["u", "v", "xs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, rng, which, bad):
        u, v, xs = random_instance(rng, n=6)
        {"u": u, "v": v, "xs": xs[0]}[which][2] = bad
        with pytest.raises(PreconditionViolated, match="finite"):
            separate(u, v, xs)


def reference_separate(u, v, xs):
    """The split search written as loops over samples and group members,
    kept as the reference that `separate` must match bit for bit: the same
    groups, the same first nonzero boundary prefix, the same max-norm point
    (lowest original index on ties) and the same order on both sides of it.
    Returns the seven SeparationResult fields in declaration order."""
    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    n = len(u)
    bounds = []
    for pos in range(n - 1):
        if v_sorted[pos + 1] - v_sorted[pos] > separation.TIE_TOL * (1.0 + abs(v_sorted[pos])):
            bounds.append(pos + 1)
    bounds.append(n)
    unorm1 = float(np.sum(np.abs(u)))
    for gi, s in enumerate(bounds[:-1], start=1):
        if abs(float(np.sum(u[order[:s]]))) > 1e-10 * unorm1:
            # beta = 0 leaves alpha at the cap
            return order, s, np.zeros(xs.shape[0]), tuple(bounds), gi, True, 1.0
    nz_tol = 1e-12 * float(np.max(np.abs(u)))
    start = 0
    for gi, end in enumerate(bounds, start=1):
        members = order[start:end]
        if np.any(np.abs(u[members]) > nz_tol):
            break
        start = end
    norms = np.linalg.norm(xs[:, members], axis=0)
    cand = np.where(np.abs(u[members]) > nz_tol)[0]
    l_local = cand[np.argmax(norms[cand])]
    for c in cand:
        if norms[c] == norms[l_local] and members[c] < members[l_local]:
            l_local = c
    l_orig = members[l_local]
    beta = xs[:, l_orig].copy()
    bnorm2 = float(beta @ beta)
    inner = beta @ xs[:, members]
    before = [m for j, m in enumerate(members) if j != l_local and inner[j] >= bnorm2]
    after = [m for j, m in enumerate(members) if j != l_local and inner[j] < bnorm2]
    perm = order.copy()
    perm[start:end] = np.array(before + [l_orig] + after, dtype=int)
    l_prime = start + len(before) + 1
    alpha_max = oracle_alpha_max(perm, l_prime, beta, v, xs, bounds)
    return perm, l_prime, beta, tuple(bounds), gi, False, alpha_max


def assert_same_split(res, u, v, xs):
    perm, l_prime, beta, bounds, t_group, trivial, alpha_max = reference_separate(u, v, xs)
    assert res.perm.dtype == perm.dtype and np.array_equal(res.perm, perm)
    assert type(res.l_prime) is int and res.l_prime == l_prime
    assert res.beta.dtype == beta.dtype and res.beta.tobytes() == beta.tobytes()
    assert res.group_bounds == bounds and all(type(b) is int for b in res.group_bounds)
    assert type(res.t_group) is int and res.t_group == t_group
    assert res.trivial_branch is trivial
    assert float(res.alpha_max).hex() == float(alpha_max).hex()


def split_group(res):
    """The members of the group holding the split, in processing order, and
    the split's position among them."""
    start = ((0,) + res.group_bounds)[res.t_group - 1]
    return res.perm[start : res.group_bounds[res.t_group - 1]], res.l_prime - start


class TestReferenceSplit:
    def test_integer_instances(self, rng):
        # every other draw ties all values, puts the points on three circles
        # and gives u two opposite entries: the split is inside the group,
        # candidates often share a norm, and zero-u points of larger norm
        # (some with <x_l, x_i> = ||x_l||^2) go before the split point
        circles = np.array([[1, -1, 1, -1, 2, 0, -2, 0, 3, 4, 5, 0, -3, -4, 0, 4],
                            [1, 1, -1, -1, 0, 2, 0, -2, 4, 3, 0, 5, 4, -3, -5, -3]], dtype=float)
        nontrivial = tied = ahead = 0
        for k in range(400):
            u, v, xs = random_instance(rng)
            if k % 2:
                n = int(rng.integers(4, 17))
                v, xs, u = np.zeros(n), circles[:, rng.permutation(16)[:n]], np.zeros(n)
                u[rng.choice(n, size=2, replace=False)] = (1.0, -1.0)
            res = separate(u, v, xs)
            assert_same_split(res, u, v, xs)
            if not res.trivial_branch:
                members, pos = split_group(res)
                norms = np.linalg.norm(xs[:, members[u[members] != 0.0]], axis=0)
                nontrivial += 1
                tied += np.count_nonzero(norms == np.max(norms)) > 1
                ahead += pos > 2
        assert nontrivial > 150 and tied > 40 and ahead > 20

    def test_float_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 12))
            u = rng.standard_normal(n) * (rng.random(n) < 0.7)
            u[-1] = -np.sum(u[:-1])
            v = rng.choice([0.0, 0.5, 1.0], size=n) + 1e-16 * rng.integers(-2, 3, size=n)
            xs = rng.standard_normal((int(rng.integers(1, 4)), n))
            if np.any(u != 0.0):
                assert_same_split(separate(u, v, xs), u, v, xs)

    def test_float_noise_groups(self):
        for seed in range(6):
            u, v, xs = tiered_instance(np.random.default_rng([seed, 7]), 120, noise=1e-16)
            res = separate(u, v, xs)
            assert not res.trivial_branch
            assert_same_split(res, u, v, xs)

    def test_3000_sample_tied_sets(self):
        rng = np.random.default_rng(5)
        # a zero-u first level of 2990 samples and a mixed second level, both
        # with float noise: the split falls inside the second group
        v = np.repeat([1.0, 2.0], [2990, 10]) * (1.0 + 1e-16 * rng.standard_normal(3000))
        u = np.zeros(3000)
        u[2990:] = rng.standard_normal(10)
        u[2990:] -= np.mean(u[2990:])
        xs = rng.standard_normal((2, 3000))
        res = separate(u, v, xs)
        assert not res.trivial_branch and res.group_bounds == (2990, 3000)
        assert_same_split(res, u, v, xs)
        # three levels of 1000: the first level boundary splits
        u = rng.standard_normal(3000)
        u -= np.mean(u)
        v = np.repeat([0.0, 1.0, 3.0], 1000)
        res = separate(u, v, xs)
        assert res.trivial_branch
        assert_same_split(res, u, v, xs)


def oracle_admissible(res, u, v, xs, slope_ratio):
    """Every (halvings, constants) pair the alpha search may yield: alpha =
    min(1, alpha_max) / 2**k for k < MAX_HALVINGS, kept where the gap case
    formula holds and the sign margin and midgap are strictly positive."""
    out = []
    for k in range(MAX_HALVINGS):
        alpha = min(1.0, res.alpha_max) * 0.5**k
        keys = shifted_keys(res, v, xs, alpha)
        gap = float(np.min(keys[res.l_prime :]) - keys[res.l_prime - 1])
        group_end = res.group_bounds[res.t_group - 1]
        formula = gap
        if res.l_prime < group_end:
            formula = float(np.min(keys[res.l_prime : group_end]) - keys[res.l_prime - 1])
        c = descent_constants_at(res, u, v, xs, slope_ratio, alpha)
        if abs(gap - formula) <= 1e-12 * (1.0 + abs(gap)) and c.margin > 0 and c.midgap > 0:
            out.append((k, c))
    return out


class TestAdmissibleConstants:
    @pytest.mark.parametrize("slope_ratio", [1.0, -0.5, None])
    def test_yields_every_admissible_halving_in_order(self, rng, slope_ratio):
        skipped_some = False
        for _ in range(60):
            u, v, xs = random_instance(rng)
            res = separate(u, v, xs)
            want = oracle_admissible(res, u, v, xs, slope_ratio)
            got = list(admissible_constants(res, u, v, xs, slope_ratio))
            assert got == [c for _, c in want]
            assert all(c.margin > 0 and c.midgap > 0 for c in got)
            assert [c.alpha for c in got] == [min(1.0, res.alpha_max) * 0.5**k for k, _ in want]
            skipped_some |= want[0][0] > 0
        # the draws include splits whose largest alphas are not admissible
        assert skipped_some

    def test_xor_starts_at_the_cap(self, xor, xor_fit):
        u, v = xor_fit.v[0], xor_fit.y_tilde[0]
        res = separate(u, v, xor.X)
        search = admissible_constants(res, u, v, xor.X, 1.0)
        first = next(search)
        assert first.alpha == min(1.0, res.alpha_max)
        assert next(search).alpha == 0.5 * first.alpha

    def test_no_admissible_alpha_raises_sizing_failed(self, monkeypatch):
        u = np.array([1.0, -1.0])
        v = np.array([0.0, 1.0])
        xs = np.array([[2.0, 1.0]])
        res = separate(u, v, xs)
        monkeypatch.setattr(separation, "_gap_formula_matches", lambda *args: False)
        with pytest.raises(SizingFailed, match=f"after {MAX_HALVINGS} halvings"):
            next(admissible_constants(res, u, v, xs, 1.0))
        with pytest.raises(SizingFailed):
            list(admissible_constants(res, u, v, xs, 1.0))


class TestNearAffineFits:
    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
    def test_zero_sum_is_judged_against_the_fitted_values(self, eps):
        # y = x1 - x2 + 1 + eps * noise: u is tiny, but the rounding in its
        # sum grows with the fitted values v
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((2, 6))
            data = Dataset(X, (X[0] - X[1] + 1.0 + eps * rng.standard_normal(6))[None, :])
            fit = fit_linear(data, LossKind.SQUARED)
            separate(fit.v[0], fit.y_tilde[0], X)


# The alpha search as it formed each halving's keys twice (once for the gap
# test, once for the constants) and summed u over I once per yield, kept as
# an oracle for the search that forms beta.x and that sum once per search
# and the keys once per halving.


def oracle_search(res, u, v, xs, slope_ratio):
    def keys_at(alpha):
        bx = res.beta @ np.atleast_2d(xs)
        return (np.asarray(v, dtype=float).reshape(-1) - alpha * bx)[res.perm]

    def gap_matches(alpha):
        group_end = res.group_bounds[res.t_group - 1]
        if res.l_prime >= group_end:
            return True
        keys = keys_at(alpha)
        key_l = float(keys[res.l_prime - 1])
        full_gap = float(np.min(keys[res.l_prime :])) - key_l
        group_gap = float(np.min(keys[res.l_prime : group_end])) - key_l
        return abs(full_gap - group_gap) <= 1e-12 * (1.0 + abs(full_gap))

    def constants_at(alpha):
        keys = keys_at(alpha)
        key_l = float(keys[res.l_prime - 1])
        midgap = 0.5 * (float(np.min(keys[res.l_prime :])) - key_l)
        interior = res.l_prime < res.group_bounds[res.t_group - 1]
        gamma_abs = 0.5 * abs(midgap) if interior else alpha
        u_sum = float(np.sum(np.asarray(u, dtype=float).reshape(-1)[res.I_indices]))
        drive = u_sum if slope_ratio is None else slope_ratio * u_sum
        gamma = -gamma_abs if drive < 0 else gamma_abs
        return separation.DescentConstants(alpha=alpha, gamma=gamma, eta1=key_l + midgap,
                                           midgap=midgap, margin=abs(midgap) - abs(gamma))

    out, alpha = [], min(separation.ALPHA_CAP, res.alpha_max)
    for _ in range(MAX_HALVINGS):
        if alpha <= res.alpha_max and gap_matches(alpha):
            consts = constants_at(alpha)
            if consts.margin > 0 and consts.midgap > 0:
                out.append(consts)
        alpha *= 0.5
    return out


def drawn_separation(seed, split):
    """A separation of the given kind: "trivial" (beta = 0, a group-boundary
    split), or "interior", from the tiered instances (beta != 0, the split
    inside its group) or small-integer draws that take that branch."""
    rng = np.random.default_rng(seed)
    while True:
        if split == "interior" and seed % 2:
            u, v, xs = tiered_instance(rng, int(rng.integers(16, 40)), noise=1e-12)
        else:
            u, v, xs = random_instance(rng)
        res = separate(u, v, xs)
        interior = res.l_prime < res.group_bounds[res.t_group - 1]
        if (res.trivial_branch, interior) == ((True, False) if split == "trivial" else (False, True)):
            return res, u, v, xs


class TestSearchFormsEachHalvingOnce:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           split=st.sampled_from(["trivial", "interior"]),
           slope_ratio=st.one_of(st.none(), st.floats(0.01, 100.0), st.floats(-100.0, -0.01)))
    @settings(max_examples=150, deadline=None)
    def test_yields_equal_the_per_halving_search(self, seed, split, slope_ratio):
        res, u, v, xs = drawn_separation(seed, split)
        want = oracle_search(res, u, v, xs, slope_ratio)
        try:
            got = list(admissible_constants(res, u, v, xs, slope_ratio))
        except SizingFailed:
            got = []
        assert got == want
        for c in got:
            assert c == descent_constants_at(res, u, v, xs, slope_ratio, c.alpha)

    def test_draws_cover_both_splits_and_interior_groups(self):
        # the trivial draws split at a group end; the interior draws split
        # inside their group, where gamma is half the midgap
        for seed in range(20):
            res, *_ = drawn_separation(seed, "trivial")
            assert not np.any(res.beta) and res.l_prime == res.group_bounds[res.t_group - 1]
            res, *_ = drawn_separation(seed, "interior")
            assert np.any(res.beta) and res.l_prime < res.group_bounds[res.t_group - 1]
