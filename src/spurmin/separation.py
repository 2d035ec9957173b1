"""Separation of samples for the descent constructions.

Given a nonzero zero-sum row u, values v, and distinct points x_i, produce a
reordering of the samples, a split index, and a direction beta such that

  (1.1)  v_i - a*beta.x_i < v_j - a*beta.x_j   for i in I, j in J and every
         a in (0, alpha_max], and
  (1.2)  sum of u over I is nonzero,

then size the constants (alpha, gamma, eta1) that drive the first hidden
row of the descent network.

`admissible_constants` is the only alpha search: it halves alpha at most
MAX_HALVINGS times and yields every admissible set of constants, largest
alpha first; the construction's verified descent takes the first yield
whose network descends, inside that one halving budget.  It forms beta.x
and the sum of u over I once per search and the shifted keys once per
halving; `shifted_keys`, `descent_constants_at` and `check_separation` read
the same private formulas (`_keys`, `_constants`, `_I_sum`).  The
construction makes one split per call and runs one search per shallow
witness (`construction._Witnesses`): the demo's four witnesses share one
split, and its stages 1 and 2 one search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import PreconditionViolated, SizingFailed

# Cap for alpha when no cross-group pair constrains it.
ALPHA_CAP = 1.0
# Relative gap below which sorted values count as tied (one group).
TIE_TOL = 1e-9
# Halvings of alpha the alpha search tries before it gives up.
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

    def as_dict(self) -> dict:
        return asdict(self)


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


def _group_bounds(v_sorted: np.ndarray, tie_tol: float) -> list[int]:
    """1-based end positions of maximal runs of (near-)equal values."""
    gaps = np.diff(v_sorted) > tie_tol * (1.0 + np.abs(v_sorted[:-1]))
    return (np.flatnonzero(gaps) + 1).tolist() + [len(v_sorted)]


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
    # a fit's u sums to zero up to rounding that grows with its values v,
    # not with u, which a near-affine fit leaves tiny
    if abs(float(np.sum(u))) > 1e-10 * (unorm1 + float(np.sum(np.abs(v)))):
        raise PreconditionViolated("u must sum to zero")

    order = np.argsort(v, kind="stable")
    bounds = _group_bounds(v[order], TIE_TOL)
    # Trivial branch: the first group-boundary prefix with nonzero u-sum is
    # the split, beta = 0.  Each prefix is summed on its own: a cumulative
    # sum rounds differently and can move the split.
    prefix_tol = 1e-10 * unorm1
    g = next((g for g, s in enumerate(bounds[:-1])
              if abs(float(np.sum(u[order[:s]]))) > prefix_tol), None)
    trivial = g is not None
    perm = order.copy()
    if trivial:
        l_prime, beta = bounds[g], np.zeros(xs.shape[0])
    else:
        # Split inside the group of the first nonzero u entry (one exists:
        # the largest |u| passes the relative test).
        nonzero = np.abs(u[order]) > 1e-12 * float(np.max(np.abs(u)))
        g = int(np.searchsorted(bounds, np.argmax(nonzero), side="right"))
        start, end = ([0] + bounds)[g], bounds[g]
        members = order[start:end]
        cand = nonzero[start:end]
        norms = np.linalg.norm(xs[:, members], axis=0)[cand]
        # ties on the norm: keep the lowest original index
        l_orig = members[cand][norms == np.max(norms)].min()
        beta = xs[:, l_orig].copy()
        others = members != l_orig
        ahead = others & (beta @ xs[:, members] >= float(beta @ beta))
        perm[start:end] = np.concatenate([members[ahead], [l_orig], members[others & ~ahead]])
        l_prime = start + int(np.count_nonzero(ahead)) + 1
        if l_prime >= n:
            # unreachable for zero-sum u with distinct points; guarded for safety
            raise PreconditionViolated("degenerate separation: empty J")
    return SeparationResult(
        perm=perm,
        l_prime=l_prime,
        beta=beta,
        group_bounds=tuple(bounds),
        t_group=g + 1,
        trivial_branch=trivial,
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
    cap is returned without the scan.  Each i in I is scanned against all of
    J at once: the cross-group mask, then dx > 0, then the least dv / dx,
    the same elementwise operations as one pair at a time in O(n) memory; a
    NaN quotient is skipped (`np.fmin`), as a pairwise running min skips it.
    """
    if not np.any(beta):
        return ALPHA_CAP
    group_of = np.repeat(np.arange(len(bounds)), np.diff([0] + bounds))
    bound = np.inf
    bx = beta @ xs
    J = perm[l_prime:]
    v_J, bx_J, group_J = v[J], bx[J], group_of[l_prime:]
    for pi in range(l_prime):
        i = perm[pi]
        cross = group_J != group_of[pi]
        dx = bx_J[cross] - bx[i]
        up = dx > 0
        if up.any():
            bound = min(bound, np.fmin.reduce((v_J[cross][up] - v[i]) / dx[up]))
    if not np.isfinite(bound):
        return ALPHA_CAP
    return min(ALPHA_CAP, 0.5 * bound)


def _keys(res: SeparationResult, v: np.ndarray, bx: np.ndarray, alpha: float) -> np.ndarray:
    """v_i - alpha * bx_i in processing order, from bx = beta @ xs."""
    return (v - alpha * bx)[res.perm]


def _projections(res: SeparationResult, v: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as a flat float row and beta.x_i, the two rows every key is formed from."""
    return np.asarray(v, dtype=float).reshape(-1), res.beta @ np.atleast_2d(xs)


def _I_sum(res: SeparationResult, u: np.ndarray) -> float:
    """The sum of u over I, the drive of (1.2)."""
    return float(np.sum(np.asarray(u, dtype=float).reshape(-1)[res.I_indices]))


def shifted_keys(res: SeparationResult, v: np.ndarray, xs: np.ndarray, alpha: float) -> np.ndarray:
    """v_i - alpha * beta.x_i in processing order."""
    return _keys(res, *_projections(res, v, xs), alpha)


def check_separation(res: SeparationResult, u: np.ndarray, v: np.ndarray, xs: np.ndarray, alpha: float) -> bool:
    """Direct check of (1.1) at a given alpha and (1.2)."""
    keys = shifted_keys(res, v, xs, alpha)
    cond_11 = float(np.max(keys[: res.l_prime])) < float(np.min(keys[res.l_prime :]))
    return bool(cond_11 and abs(_I_sum(res, u)) > 0.0)


def _constants(res: SeparationResult, keys: np.ndarray, u_sum: float, slope_ratio: float | None,
               alpha: float) -> DescentConstants:
    """The one constants formula (see `descent_constants_at`), from the
    shifted keys at alpha and the sum of u over I."""
    key_l = float(keys[res.l_prime - 1])
    min_j = float(np.min(keys[res.l_prime :]))
    midgap = 0.5 * (min_j - key_l)
    eta1 = key_l + midgap

    interior = res.l_prime < res.group_bounds[res.t_group - 1]
    gamma_abs = 0.5 * abs(midgap) if interior else alpha
    drive = u_sum if slope_ratio is None else slope_ratio * u_sum
    # a zero drive keeps +|gamma|
    gamma = -gamma_abs if drive < 0 else gamma_abs
    return DescentConstants(
        alpha=alpha,
        gamma=gamma,
        eta1=eta1,
        midgap=midgap,
        margin=abs(midgap) - abs(gamma),
    )


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
    return _constants(res, shifted_keys(res, v, xs, alpha), _I_sum(res, u), slope_ratio, alpha)


def _gap_formula_matches(res: SeparationResult, keys: np.ndarray) -> bool:
    """At small alpha the J-minimum is attained inside the split group; the
    sizing used for gamma assumes exactly that, so alpha is shrunk until the
    group-restricted gap equals the full gap, read from the shifted keys at
    alpha."""
    group_end = res.group_bounds[res.t_group - 1]
    if res.l_prime >= group_end:
        return True
    key_l = float(keys[res.l_prime - 1])
    full_gap = float(np.min(keys[res.l_prime :])) - key_l
    group_gap = float(np.min(keys[res.l_prime : group_end])) - key_l
    return abs(full_gap - group_gap) <= 1e-12 * (1.0 + abs(full_gap))


def admissible_constants(
    res: SeparationResult,
    u: np.ndarray,
    v: np.ndarray,
    xs: np.ndarray,
    slope_ratio: float | None,
) -> Iterator[DescentConstants]:
    """The one alpha search: halve alpha from min(1, alpha_max), at most
    MAX_HALVINGS times, and yield the constants at every alpha where the gap
    case-formula and a strict sign margin hold (margin > 0, midgap > 0).

    beta.x and the sum of u over I are formed once per search, and the
    shifted keys once per halving, which the gap test and the constants
    (`_constants`, the formula `descent_constants_at` reads) share; every
    yield equals `descent_constants_at` at its alpha.

    Raises SizingFailed when the search ends without a yield.
    """
    (v, bx), u_sum = _projections(res, v, xs), _I_sum(res, u)
    alpha = min(ALPHA_CAP, res.alpha_max)
    sized = False
    for _ in range(MAX_HALVINGS):
        if alpha <= res.alpha_max:
            keys = _keys(res, v, bx, alpha)
            if _gap_formula_matches(res, keys):
                consts = _constants(res, keys, u_sum, slope_ratio, alpha)
                if consts.margin > 0 and consts.midgap > 0:
                    sized = True
                    yield consts
        alpha *= 0.5
    if not sized:
        raise SizingFailed(f"no admissible alpha after {MAX_HALVINGS} halvings")
