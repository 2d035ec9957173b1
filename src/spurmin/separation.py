"""Separation of samples for the descent constructions.

Given a nonzero zero-sum row u, values v, and distinct points x_i, produce a
reordering of the samples, a split index, and a direction beta such that

  (1.1)  v_i - a*beta.x_i < v_j - a*beta.x_j   for i in I, j in J and every
         a in (0, alpha_max], and
  (1.2)  sum of u over I is nonzero,

then size the constants (alpha, gamma, eta1) that drive the first hidden
row of the descent network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, SizingFailed

# Cap for alpha when no cross-group pair constrains it.
ALPHA_CAP = 1.0
# Relative gap below which sorted values count as tied (one group).
TIE_TOL = 1e-9
# Halvings of alpha an alpha search tries before it gives up.
MAX_HALVINGS = 200


@dataclass(frozen=True)
class SeparationResult:
    """Reordered samples with a validated split.

    perm: original sample indices in the processing order; I is perm[:l_prime]
    and J is perm[l_prime:].
    group_bounds: cumulative group end positions (1-based) of equal-v groups
    in the processing order; the last entry is n.
    t_group: 1-based index of the group containing position l_prime.
    beta: separating direction (zero vector on the trivial branch).
    alpha_max: every alpha in (0, alpha_max] satisfies (1.1).
    """

    perm: np.ndarray
    l_prime: int
    beta: np.ndarray
    group_bounds: tuple[int, ...]
    t_group: int
    trivial_branch: bool
    alpha_max: float

    @property
    def I_indices(self) -> np.ndarray:
        return self.perm[: self.l_prime]

    @property
    def J_indices(self) -> np.ndarray:
        return self.perm[self.l_prime :]

    def as_dict(self) -> dict:
        return {
            "perm": self.perm.tolist(),
            "l_prime": self.l_prime,
            "beta": self.beta.tolist(),
            "group_bounds": list(self.group_bounds),
            "t_group": self.t_group,
            "trivial_branch": self.trivial_branch,
            "alpha_max": self.alpha_max,
        }


@dataclass(frozen=True)
class DescentConstants:
    """Sized constants for the first-row descent perturbation.

    margin is the strict slack |midgap| - |gamma| that keeps the sign pattern
    of the two tilted hidden rows intact.
    """

    alpha: float
    gamma: float
    eta1: float
    midgap: float
    margin: float

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "eta1": self.eta1,
            "midgap": self.midgap,
            "margin": self.margin,
        }


def _group_bounds(v_sorted: np.ndarray, tie_tol: float) -> list[int]:
    """1-based end positions of maximal runs of (near-)equal values."""
    bounds = []
    for pos in range(len(v_sorted) - 1):
        if v_sorted[pos + 1] - v_sorted[pos] > tie_tol * (1.0 + abs(v_sorted[pos])):
            bounds.append(pos + 1)
    bounds.append(len(v_sorted))
    return bounds


def separate(u: np.ndarray, v: np.ndarray, xs: np.ndarray) -> SeparationResult:
    """Find a split (I, J) and direction beta satisfying (1.1) and (1.2).

    u: zero-sum nonzero row (n,), v: values (n,), xs: points d_X x n with
    pairwise distinct columns.

    Samples are stably sorted by v and grouped with the relative tie
    tolerance TIE_TOL (fit outputs that are analytically equal may differ by
    float noise).  If some group-boundary prefix of u has nonzero sum, that
    prefix is the split and beta = 0.  Otherwise the first group holding a nonzero u entry is
    reordered around its max-norm nonzero-u point x_l: members with
    <x_l, x_i> >= ||x_l||^2 go before x_l, the rest after, preserving
    original relative order on both sides, and beta = x_l.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = u.shape[0]
    if v.shape[0] != n or xs.shape[1] != n:
        raise PreconditionViolated("u, v and xs must agree on the sample count")
    if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(xs).all()):
        raise PreconditionViolated("u, v and xs must be finite")
    unorm1 = float(np.sum(np.abs(u)))
    if unorm1 == 0.0:
        raise PreconditionViolated("u must be nonzero")
    if abs(float(np.sum(u))) > 1e-10 * unorm1:
        raise PreconditionViolated("u must sum to zero")

    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    bounds = _group_bounds(v_sorted, TIE_TOL)

    nz_tol = 1e-12 * float(np.max(np.abs(u)))
    prefix_tol = 1e-10 * unorm1

    # Trivial branch: a group-boundary prefix with nonzero u-sum, beta = 0.
    for gi, s in enumerate(bounds[:-1], start=1):
        if abs(float(np.sum(u[order[:s]]))) > prefix_tol:
            perm = order.copy()
            beta0 = np.zeros(xs.shape[0])
            return SeparationResult(
                perm=perm,
                l_prime=s,
                beta=beta0,
                group_bounds=tuple(bounds),
                t_group=gi,
                trivial_branch=True,
                alpha_max=_alpha_max(perm, s, beta0, v, xs, bounds),
            )

    # All boundary prefixes vanish; split inside the first group holding a
    # nonzero u entry.
    start = 0
    chosen = None
    for gi, s in enumerate(bounds, start=1):
        members = order[start:s]
        if np.any(np.abs(u[members]) > nz_tol):
            chosen = (gi, start, s, members)
            break
        start = s
    if chosen is None:
        raise PreconditionViolated("u must be nonzero")
    gi, start, s, members = chosen

    norms = np.linalg.norm(xs[:, members], axis=0)
    nz_mask = np.abs(u[members]) > nz_tol
    cand = np.where(nz_mask)[0]
    l_local = cand[np.argmax(norms[cand])]
    # ties on the norm: keep the lowest original index
    best = norms[l_local]
    for c in cand:
        if norms[c] == best and members[c] < members[l_local]:
            l_local = c
    l_orig = members[l_local]
    beta = xs[:, l_orig].copy()
    bnorm2 = float(beta @ beta)

    inner = beta @ xs[:, members]
    before = [m for j, m in enumerate(members) if j != l_local and inner[j] >= bnorm2]
    after = [m for j, m in enumerate(members) if j != l_local and inner[j] < bnorm2]
    reordered = np.array(before + [l_orig] + after, dtype=int)

    perm = order.copy()
    perm[start:s] = reordered
    l_prime = start + len(before) + 1
    if l_prime >= n:
        # unreachable for zero-sum u with distinct points; guarded for safety
        raise PreconditionViolated("degenerate separation: empty J")
    return SeparationResult(
        perm=perm,
        l_prime=l_prime,
        beta=beta,
        group_bounds=tuple(bounds),
        t_group=gi,
        trivial_branch=False,
        alpha_max=_alpha_max(perm, l_prime, beta, v, xs, bounds),
    )


def _alpha_max(
    perm: np.ndarray,
    l_prime: int,
    beta: np.ndarray,
    v: np.ndarray,
    xs: np.ndarray,
    bounds: list[int],
) -> float:
    """Largest verified alpha: (1.1) holds for every alpha in (0, alpha_max].

    Same-group pairs satisfy (1.1) for all positive alpha by the reorder
    (group membership, not raw v equality, decides this: analytically tied
    values carry float noise).  A cross-group pair constrains alpha only when
    the beta-projections oppose the v ordering: v_i - a*bx_i < v_j - a*bx_j
    needs a < (v_j - v_i) / (bx_j - bx_i) when bx_j > bx_i.  Half the cap
    keeps the inequality strict.

    With beta = 0 every bx_j - bx_i is 0, so no pair can bound alpha and the
    cap is returned without the scan.
    """
    if not np.any(beta):
        return ALPHA_CAP
    n = len(perm)
    group_of = np.empty(n, dtype=int)
    start = 0
    for gid, end in enumerate(bounds):
        group_of[start:end] = gid
        start = end
    bound = np.inf
    bx = beta @ xs
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
        return ALPHA_CAP
    return min(ALPHA_CAP, 0.5 * bound)


def shifted_keys(res: SeparationResult, v: np.ndarray, xs: np.ndarray, alpha: float) -> np.ndarray:
    """v_i - alpha * beta.x_i in processing order."""
    v = np.asarray(v, dtype=float).reshape(-1)
    bx = res.beta @ np.atleast_2d(xs)
    return (v - alpha * bx)[res.perm]


def check_separation(res: SeparationResult, u: np.ndarray, v: np.ndarray, xs: np.ndarray, alpha: float) -> bool:
    """Direct check of (1.1) at a given alpha and (1.2)."""
    keys = shifted_keys(res, v, xs, alpha)
    cond_11 = float(np.max(keys[: res.l_prime])) < float(np.min(keys[res.l_prime :]))
    cond_12 = abs(float(np.sum(np.asarray(u).reshape(-1)[res.I_indices]))) > 0.0
    return bool(cond_11 and cond_12)


def descent_constants_at(
    res: SeparationResult,
    u: np.ndarray,
    v: np.ndarray,
    xs: np.ndarray,
    slope_ratio: float | None,
    alpha: float,
) -> DescentConstants:
    """Evaluate gamma, eta1 and the sign-margin at a fixed alpha.

    midgap is half the gap between the smallest shifted J value and the
    shifted value at position l_prime; eta1 sits at the midpoint so the two
    tilted rows change sign exactly across the split.  |gamma| is half the
    midgap when the split is interior to its group, alpha when the split is
    the group end.

    The sign of gamma is chosen to make the first-order risk change
    -2*gamma*r*sum_I(u) negative, where r is the slope ratio
    (s+ - s-)/(s+ + s-); passing slope_ratio=None selects the balanced-slope
    rule (first-order change -2*gamma*sum_I(u), so sgn(gamma) = sgn(sum_I u)).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    keys = shifted_keys(res, v, xs, alpha)
    key_l = float(keys[res.l_prime - 1])
    min_j = float(np.min(keys[res.l_prime :]))
    midgap = 0.5 * (min_j - key_l)
    eta1 = key_l + midgap

    group_end = res.group_bounds[res.t_group - 1]
    if res.l_prime < group_end:
        gamma_abs = 0.5 * abs(midgap)
    else:
        gamma_abs = alpha

    u_sum = float(np.sum(u[res.I_indices]))
    drive = u_sum if slope_ratio is None else slope_ratio * u_sum
    sign = 1.0 if drive > 0 else (-1.0 if drive < 0 else 1.0)
    gamma = sign * gamma_abs
    return DescentConstants(
        alpha=alpha,
        gamma=gamma,
        eta1=eta1,
        midgap=midgap,
        margin=abs(midgap) - abs(gamma),
    )


def _gap_formula_matches(res: SeparationResult, v: np.ndarray, xs: np.ndarray, alpha: float) -> bool:
    """At small alpha the J-minimum is attained inside the split group; the
    sizing used for gamma assumes exactly that, so alpha is shrunk until the
    group-restricted gap equals the full gap."""
    group_end = res.group_bounds[res.t_group - 1]
    if res.l_prime >= group_end:
        return True
    keys = shifted_keys(res, v, xs, alpha)
    key_l = float(keys[res.l_prime - 1])
    full_gap = float(np.min(keys[res.l_prime :])) - key_l
    group_gap = float(np.min(keys[res.l_prime : group_end])) - key_l
    return abs(full_gap - group_gap) <= 1e-12 * (1.0 + abs(full_gap))


def size_constants(
    res: SeparationResult,
    u: np.ndarray,
    v: np.ndarray,
    xs: np.ndarray,
    slope_ratio: float | None,
) -> DescentConstants:
    """Find constants by halving alpha from min(1, alpha_max) until the split
    inequality, the gap case-formula, and a strict sign margin all hold.

    The caller re-verifies the assembled network's risk and keeps halving
    through descent_constants_at if the strict decrease has not manifested.
    """
    alpha = min(ALPHA_CAP, res.alpha_max)
    for _ in range(MAX_HALVINGS):
        if alpha <= res.alpha_max and _gap_formula_matches(res, v, xs, alpha):
            consts = descent_constants_at(res, u, v, xs, slope_ratio, alpha)
            if consts.margin > 0 and consts.midgap > 0:
                return consts
        alpha *= 0.5
    raise SizingFailed(f"no admissible alpha after {MAX_HALVINGS} halvings")
