"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them inline)."""

import numpy as np
import pytest

import spurmin as sp
from spurmin import LossKind, cells
from spurmin.cli import main
from spurmin.linear_fit import augment
from spurmin.separation import check_separation, separate

SQ = LossKind.SQUARED


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def xor():
    return sp.xor_dataset()


@pytest.fixture(scope="module")
def fit(xor):
    return sp.fit_linear(xor, SQ)


def test_criterion_1_linear_baseline(xor, fit):
    Xt = augment(xor.X)
    oracle_w = np.linalg.solve(Xt @ Xt.T, Xt @ xor.Y.T).T
    oracle_risk = float(np.sum(0.5 * (oracle_w @ Xt - xor.Y) ** 2) / xor.n)
    dw = float(np.max(np.abs(fit.w_tilde - oracle_w)))
    dr = abs(fit.risk - oracle_risk)
    ok = (
        dw <= 1e-9
        and dr <= 1e-9
        and np.max(np.abs(oracle_w - [[0.0, 0.0, 0.5]])) <= 1e-9
        and abs(oracle_risk - 0.125) <= 1e-9
    )
    report(1, ok, f"w_tilde dev {dw:.2e}, risk dev {dr:.2e} vs normal-equations oracle")


def test_criterion_2_stage1(xor, fit):
    minimum = sp.build_minimum(fit, xor, (2, 3, 1), sp.relu(), stage="1")
    witness = sp.build_descent(fit, xor, (2, 3, 1), sp.relu(), stage="1")
    out = sp.forward(minimum.net, xor.X).output
    pert = sp.perturbation_local_min_test(minimum.net, xor, SQ, radius=1e-4, samples=500, seed=7)
    gap = minimum.risk - witness.risk
    ok = (
        abs(minimum.risk - 0.125) <= 1e-9
        and float(np.max(np.abs(out - 0.5))) <= 1e-12
        and pert.verdict
        and witness.risk < 0.125
        and gap > 1e-12
    )
    report(2, ok, f"risk {minimum.risk:.12f}, worst perturbation {pert.checks[0].value:.2e}, gap {gap:.2e}")


def test_criterion_3_stage2_stage3(xor, fit):
    m2 = sp.build_minimum(fit, xor, (2, 3, 3, 1), sp.relu(), stage="2")
    w2 = sp.build_descent(fit, xor, (2, 3, 3, 1), sp.relu(), stage="2")
    m3 = sp.build_minimum(fit, xor, (2, 3, 3, 1), sp.three_piece(), stage="3")
    w3 = sp.build_descent(fit, xor, (2, 3, 3, 1), sp.three_piece(), stage="3")

    t2 = sp.forward(m2.net, xor.X)
    t3 = sp.forward(m3.net, xor.X)
    pos_ok = all(np.all(z > 0) for z in t2.hidden_pre)
    unit_ok = all(np.all(z > 0) and np.all(z < 1) for z in t3.hidden_pre)

    w1_relu = sp.build_descent(fit, xor, (2, 3, 1), sp.relu(), stage="1")
    w1_local = sp.build_descent(fit, xor, (2, 3, 1), sp.two_piece(0.2, 1.0), stage="1")
    ok = (
        abs(m2.risk - 0.125) <= 1e-9
        and abs(m3.risk - 0.125) <= 1e-9
        and pos_ok
        and unit_ok
        and abs(w2.risk - w1_relu.risk) <= 1e-10
        and abs(w3.risk - w1_local.risk) <= 1e-10
    )
    report(3, ok, (
        f"stage2 risk {m2.risk:.12f} (pre>0: {pos_ok}), stage3 risk {m3.risk:.12f} "
        f"(pre in (0,1): {unit_ok}), witness deltas {abs(w2.risk - w1_relu.risk):.2e}/"
        f"{abs(w3.risk - w1_local.risk):.2e}"
    ))


def test_criterion_4_corollary(xor, fit):
    witness = sp.build_descent(fit, xor, (2, 4, 1), sp.absolute_value(), stage="corollary")
    gap = fit.risk - witness.risk
    rejected = False
    try:
        sp.build_descent(fit, xor, (2, 2, 1), sp.absolute_value(), stage="corollary")
    except sp.WidthViolation:
        rejected = True
    ok = witness.risk < 0.125 and gap > 1e-12 and rejected
    report(4, ok, f"balanced witness risk {witness.risk:.6f} (gap {gap:.2e}), narrow dims rejected: {rejected}")


def test_criterion_5_family(xor, fit):
    members = sp.enumerate_family(fit, xor, (2, 3, 3, 1), sp.relu(), k=10, seed=7)
    dists = [
        sp.params_distance(a.net, b.net)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    ]
    max_risk_dev = max(abs(m.risk - 0.125) for m in members)
    ok = len(members) == 10 and min(dists) > 1e-6 and max_risk_dev <= 1e-9
    report(5, ok, f"10 members, min param distance {min(dists):.2e}, max risk dev {max_risk_dev:.2e}")


def _oracle_any_valid_and_member(u, v, xs, res):
    """Exhaustive oracle over all nonempty proper splits and beta in
    {0} union {x_i}: pairwise validity via the small-alpha lexicographic
    order (v_i < v_j, or tie with strictly larger beta-projection on the
    I side) plus a nonzero u-sum over I."""
    n = len(u)
    masks = np.array(
        [[(b >> i) & 1 == 1 for i in range(n)] for b in range(1, 2**n - 1)],
        dtype=bool,
    )
    betas = [np.zeros(xs.shape[0])] + [xs[:, i].copy() for i in range(n)]
    res_mask = np.zeros(n, dtype=bool)
    res_mask[res.I_indices] = True
    usum_ok = np.abs(masks @ u) > 1e-9
    exists = False
    member = False
    for beta in betas:
        bx = beta @ xs
        less = (v[:, None] < v[None, :]) | ((v[:, None] == v[None, :]) & (bx[:, None] > bx[None, :]))
        viol = (~less).astype(int)
        bad_counts = ((masks.astype(int) @ viol) * (~masks)).sum(axis=1)
        valid = (bad_counts == 0) & usum_ok
        if valid.any():
            exists = True
        if np.array_equal(beta, res.beta):
            idx = np.where((masks == res_mask).all(axis=1))[0]
            if idx.size and valid[idx[0]]:
                member = True
    return exists, member


def test_criterion_6_separation_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
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
        res = separate(u, v, xs)
        exists, member = _oracle_any_valid_and_member(u, v, xs, res)
        assert exists and member, (u, v, xs)
        for a in rng.uniform(0.0, res.alpha_max, size=100):
            if a > 0.0:
                assert check_separation(res, u, v, xs, a), (u, v, xs, a)
        assert abs(np.sum(u[res.I_indices])) > 0.0
        checked += 1
    report(6, checked == 200, f"{checked}/200 instances match the exhaustive split oracle")


def test_criterion_7_cell_geometry(xor, fit):
    rng = np.random.default_rng(99)
    act = sp.relu()
    # reformulation identity on random interior nets; biases ride along as an
    # extra input coordinate fixed at one (XOR contains the origin, so truly
    # bias-free nets always sit on a cell boundary there)
    worst = 0.0
    count = 0
    while count < 100:
        net = sp.Mlp(
            (2, 4, 1),
            (rng.standard_normal((4, 2)), rng.standard_normal((1, 4))),
            (rng.standard_normal(4), np.zeros(1)),
            act,
        )
        sig = cells.activation_pattern(net, xor.X)
        if not sig.interior:
            continue
        W1a, W2r, b2, Xa = cells.net_cell_inputs(net, xor.X)
        lifted = cells.lift_data(sig, Xa)
        q = cells.quotient_map(W1a, W2r)
        reform = cells.reformulated_risk(q, lifted, xor.Y, SQ, output_bias=b2)
        worst = max(worst, abs(reform - sp.empirical_risk(net, xor, SQ)))
        count += 1
    identity_ok = worst <= 1e-12

    minimum = sp.build_minimum(fit, xor, (2, 3, 1), act, stage="1")
    W1a, W2r, b2, Xa = cells.net_cell_inputs(minimum.net, xor.X)
    lifted = cells.lift_data(cells.activation_pattern(minimum.net, xor.X), Xa)
    residual = cells.quotient_gradient_residual(
        cells.quotient_map(W1a, W2r), lifted, xor.Y, SQ, output_bias=b2
    )
    residual_ok = residual <= 1e-8

    factors = np.array([2.0, 0.5, 3.0])
    path = cells.build_valley_path(
        (W1a, W2r), (W1a / factors[:, None], W2r * factors), steps_per_move=10
    )
    risk_dev = 0.0
    pattern_ok = True
    ref = None
    for W1, W2 in path:
        net = sp.Mlp((2, 3, 1), (W1[:, :2], W2[None, :]), (W1[:, 2], np.array([b2])), act)
        risk_dev = max(risk_dev, abs(sp.empirical_risk(net, xor, SQ) - 0.125))
        s = cells.activation_pattern(net, xor.X)
        if ref is None:
            ref = s
        pattern_ok = pattern_ok and cells.signatures_equal(ref, s)
    path_ok = len(path) >= 30 and risk_dev <= 1e-10 and pattern_ok

    axioms_ok = True
    for _ in range(100):
        W1 = rng.standard_normal((3, 2))
        W2 = rng.standard_normal(3)

        def rescale(cs):
            return (W1 * cs[:, None], W2 / cs)

        a = rescale(rng.uniform(0.5, 2.0, 3))
        b = rescale(rng.uniform(0.5, 2.0, 3))
        c = rescale(rng.uniform(0.5, 2.0, 3))
        axioms_ok = axioms_ok and cells.equivalence_check(a, a)
        if cells.equivalence_check(a, b):
            axioms_ok = axioms_ok and cells.equivalence_check(b, a)
            if cells.equivalence_check(b, c):
                axioms_ok = axioms_ok and cells.equivalence_check(a, c, tol=2e-12)

    ok = identity_ok and residual_ok and path_ok and axioms_ok
    report(7, ok, (
        f"reformulation worst dev {worst:.2e}, residual {residual:.2e}, "
        f"path dev {risk_dev:.2e} over {len(path)} pts (pattern constant: {pattern_ok}), "
        f"axioms: {axioms_ok}"
    ))


def test_criterion_8_linear_collapse(xor):
    identity = sp.PiecewiseLinear((), (1.0,), 0.0)
    single = cells.linear_collapse_check(identity, xor.X)
    relu_varies = not cells.linear_collapse_check(sp.relu(), xor.X)
    report(8, single and relu_varies,
           f"identity single cell: {single}, relu control varies: {relu_varies}")


def test_criterion_9_loss_lemmas():
    rng = np.random.default_rng(5)
    from spurmin import loss_gradient, per_sample_loss
    from spurmin.verification import fd_gradient_check

    worst_fd = 0.0
    y_ce = np.array([0.0, 1.0, 0.0])
    for _ in range(100):
        y_sq = rng.standard_normal(3)
        p = rng.standard_normal(3)
        for kind, y in [(SQ, y_sq), (LossKind.CROSS_ENTROPY, y_ce)]:
            worst_fd = max(worst_fd, fd_gradient_check(
                lambda q: float(per_sample_loss(kind, y[:, None], q[:, None])[0]),
                lambda q: loss_gradient(kind, y[:, None], q[:, None])[:, 0],
                p,
            ))
    fd_ok = worst_fd <= 1e-6

    convex_ok = True
    y = rng.standard_normal(4)
    for _ in range(100):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        la = per_sample_loss(SQ, y[:, None], a[:, None])[0]
        lb = per_sample_loss(SQ, y[:, None], b[:, None])[0]
        lm = per_sample_loss(SQ, y[:, None], ((a + b) / 2)[:, None])[0]
        convex_ok = convex_ok and (lm < 0.5 * la + 0.5 * lb - 0.999 * float(np.sum((a - b) ** 2)) / 8)

    ce_nonzero_ok = True
    for _ in range(100):
        p = rng.standard_normal(3)
        g = loss_gradient(LossKind.CROSS_ENTROPY, y_ce[:, None], p[:, None])
        ce_nonzero_ok = ce_nonzero_ok and float(np.linalg.norm(g)) > 0.0

    ok = fd_ok and convex_ok and ce_nonzero_ok
    report(9, ok, f"fd worst {worst_fd:.2e}, convexity probe: {convex_ok}, ce nonzero: {ce_nonzero_ok}")


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["demo", "--seed", "7", "--out", str(a)]) == 0
    assert main(["demo", "--seed", "7", "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(10, identical, f"two demo runs wrote {a.stat().st_size} identical bytes: {identical}")
