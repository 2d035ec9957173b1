"""Certification: the sampled local-minimality probe, descent gaps,
finite-difference gradient checks and trace-interval checks, each emitted as
a machine-readable certificate with pinned seeds.

These are the only copies of the checks, each with one rule.
`_interval_margin` is the one interval margin: `trace_interval_check` reads
it from one forward trace, and construction from every minimum it builds (a
family's members a stacked chunk at a time) and keeps the certificate on the
point.  `_descends` is the one descent rule: `descent_gap_certificate` and
construction's witness search both read it.  `_risk_match` is the one
risk-match rule.  The reports are written from these checks: the demo
records a stage's risk match, descent gap and probe side by side.

The probe has one path, `_shared_draw_risks`, which takes a list of
networks; the public checks are its one-network case, and the demo probes
its three stage minima in one call (`_probe_certificates`).  A radius of 0
would draw only the network itself, which any network passes: it is
refused.  Draw i of every network reads one stream, default_rng(seed ^ i),
so the demo's stage probes, run with one seed, share one set of streams:
each block is drawn once at the widest network's parameter count, and a
narrower network reads its leading columns.  A prefix of a stream is that
stream, since PCG64's k-th output depends only on its seeded state and k,
not on how many outputs follow."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import PreconditionViolated, check_integer, check_real
from .network import (
    Dataset, ForwardTrace, LossKind, Mlp, _layer_outputs, empirical_risk, forward,
    risk_of_outputs,
)

LOCAL_MIN_SLACK = -1e-10  # absorbs summation rounding in the risk
DESCENT_GAP_MIN = 1e-12
RISK_MATCH_TOL = 1e-9  # |risk(minimum) - baseline risk| / max(1, baseline risk)
FD_STEP = 1e-6  # central-difference step of fd_gradient_check
_PROBE_RADIUS, _PROBE_SAMPLES = 1e-4, 500  # the probe's defaults, the demo's settings
# float64 elements per stacked array in one chunk of networks (1 MiB), and
# per array of a block of probe streams, draws x parameters.  A four times
# larger budget raised peak memory by ~15 MB on a 3000-sample, 16-unit probe,
# and was no faster.
_CHUNK_ELEMENTS = 1 << 17

# numpy's SeedSequence hash (a pool of four 32-bit words) and its constants.
_U32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, ..., init * mult**n, each modulo 2**32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _U32)
    return np.array(consts, dtype=np.uint32)


# 4 pool fills and 12 cross mixes hash with A; 8 output words hash with B.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


# PCG64, numpy's default bit generator, steps state <- state * M + inc modulo
# 2**128, so its k-th state is M**k * state_0 + (M**(k-1) + ... + 1) * inc.
# Streams of up to _ARRAY_STREAM_MAX parameters per draw are computed from
# that as array arithmetic, longer ones by numpy's generator, one per draw.
# Arrays against generators for 500 draws on a 2-core Xeon (numpy 2.4): 0.4
# against 1.8 ms at 13 parameters, 1.5 against 2.0 ms at 64, 2.0 against
# 1.6 ms at 128; for 3 draws of 34 177, 2.4 against 0.34 ms.  The paths
# crossed between 97 and 128 parameters there, and at 65-97 in an earlier
# measurement on the same kind of host; the bound sits below both.
_ARRAY_STREAM_MAX = 64
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_LO32 = np.uint64(_U32)
_1, _11, _32, _58, _63, _64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def _jump_consts(n: int) -> list[np.ndarray]:
    """High and low uint64 words of M**k, then of M**(k-1) + ... + 1, for
    k = 1..n."""
    powers, sums = [_PCG_MULT], [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    return [
        np.array([v >> shift & _MASK64 for v in values], dtype=np.uint64)
        for values in (powers, sums) for shift in (64, 0)
    ]


_POW_HI, _POW_LO, _SUM_HI, _SUM_LO = _jump_consts(_ARRAY_STREAM_MAX)


def _stack_size(dims: tuple[int, ...], n: int) -> int:
    """How many networks of shape dims one stacked pass on n samples takes:
    as many as keep each stacked array, a layer's outputs (d_j x n) or all
    parameters of a network, within _CHUNK_ELEMENTS; at least one.  The one
    chunk rule of the probe's draws, a family's members and a valley's
    points."""
    params = sum(a * b + a for a, b in zip(dims[1:], dims[:-1]))
    return max(1, _CHUNK_ELEMENTS // max(max(dims[1:]) * n, params))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float
    samples: Optional[int] = None
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Certificate:
    subject: str
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s,
    as a (len(seeds), 4) uint64 array.

    A seed's entropy is its low and high 32-bit words; a seed below 2**32 has
    only the low word, but the pool pads missing entropy with hashed zeros,
    so the two hash alike.  Every operand is a uint32 array or scalar, so
    products wrap modulo 2**32 as in numpy's C code.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zeros = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [
        (seeds & np.uint64(_U32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        zeros,
        zeros,
    ]
    consts = zip(_HASH_A, _HASH_A[1:])

    def hashmix(v):
        xor, mult = next(consts)
        v = (v ^ xor) * mult
        return v ^ (v >> _XSHIFT)

    pool = [hashmix(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = v ^ (v >> _XSHIFT)
    state = np.empty((*seeds.shape, 8), dtype="<u4")
    for k in range(8):
        v = (pool[k % 4] ^ _HASH_B[k]) * _HASH_B[k + 1]
        state[..., k] = v ^ (v >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands precomputed SeedSequence output to PCG64's seeding, which asks
    for 4 uint64 words and reads them through a raw pointer: `words` must be
    one contiguous uint64 row of _seed_words' output."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2**128 for broadcast (high, low) uint64 word arrays: the
    low words' full product from 32-bit limbs, the cross terms mod 2**64."""
    a0, a1, b0, b1 = al & _LO32, al >> _32, bl & _LO32, bl >> _32
    mid = a1 * b0
    hi = mid >> _32
    mid &= _LO32
    mid += a0 * b1
    mid += (a0 * b0) >> _32  # mid stays below 2**64
    mid >>= _32
    hi += mid
    hi += a1 * b1
    hi += ah * bl
    hi += al * bh
    return hi, al * bl


def _add128(ah, al, bh, bl):
    """(a + b) mod 2**128 for broadcast (high, low) uint64 word arrays."""
    lo = al + bl
    return ah + bh + (lo < bl), lo


def _pcg64_random(words: np.ndarray, total: int) -> np.ndarray:
    """Generator(PCG64(w)).random(total) for every row w of _seed_words'
    output, as one (rows, total) array.

    Seeding takes initstate = w0 * 2**64 + w1 and inc = 2 * (w2 * 2**64 + w3)
    + 1, and sets state_0 = (inc + initstate) * M + inc.  Draw k = 1..total
    steps, then outputs state_k's XSL-RR word rotr64(hi ^ lo, hi >> 58), and
    random() scales its top 53 bits by 2**-53.
    """
    inc = (words[:, 2:3] << _1) | (words[:, 3:4] >> _63), (words[:, 3:4] << _1) | _1
    seeded = _add128(*inc, words[:, 0:1], words[:, 1:2])
    state0 = _add128(*_mul128(*seeded, _POW_HI[:1], _POW_LO[:1]), *inc)
    # state_k for the whole block, its sum added in place
    hi, lo = _mul128(_POW_HI[:total], _POW_LO[:total], *state0)
    step_hi, step_lo = _mul128(_SUM_HI[:total], _SUM_LO[:total], *inc)
    lo += step_lo
    hi += step_hi
    hi += lo < step_lo
    lo ^= hi
    hi >>= _58
    np.right_shift(lo, hi, out=step_lo)
    np.subtract(_64, hi, out=hi)
    hi &= _63
    lo <<= hi
    lo |= step_lo
    lo >>= _11
    u = lo.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _uniform_draws(seed64: int, start: int, stop: int, total: int) -> np.ndarray:
    """Rows i = start..stop-1 of default_rng(seed64 ^ i).uniform(-1, 1, total).

    The seeds are hashed together.  Up to _ARRAY_STREAM_MAX parameters per
    draw, the block's PCG64 streams are then computed together as array
    arithmetic; above it, each row is numpy's own PCG64 stream through
    Generator.random, written in place.  Both give the same bits, and
    Generator.uniform(-1, 1) is -1 + 2 * random().
    """
    words = _seed_words(np.arange(start, stop, dtype=np.uint64) ^ np.uint64(seed64))
    if total <= _ARRAY_STREAM_MAX:
        u = _pcg64_random(words, total)
    else:
        u = np.empty((stop - start, total))
        for row, w in zip(u, words):
            np.random.Generator(np.random.PCG64(_SeedWords(w))).random(out=row)
    u *= 2.0
    u -= 1.0
    return u


def _shared_draw_risks(
    nets: list[Mlp], data: Dataset, loss: LossKind, radius: float, samples: int, seed64: int
) -> list[np.ndarray]:
    """Risk of each perturbed draw of every network, evaluated in chunks of
    stacked networks.

    Draw i moves every weight and bias entry p by radius * (1 + |p|) * u, with
    u uniform on [-1, 1] from its own stream default_rng(seed64 ^ i): one
    `uniform` call per draw, split over the weights layer by layer and then
    the biases.  A chunk holds `_stack_size` draws of one network, as many as
    keep each stacked array within _CHUNK_ELEMENTS.  The streams are made a
    block of whole chunks at a time, as many draws as that budget holds, since
    each call has a fixed cost: _uniform_draws hashes the block's seeds
    together and, for at most _ARRAY_STREAM_MAX parameters, computes its
    streams as arrays too.  Each block is drawn once, for the widest network
    and by its block rule, and a network with fewer parameters reads the
    block's leading columns: the first T values of a stream do not depend on
    how many follow.  Each parameter's perturbed stack is formed once per
    block, and each chunk's networks are slices of it.
    """
    if not nets:
        return []
    plans = []
    for net in nets:
        params = (*net.weights, *net.biases)
        bounds = np.cumsum([0] + [p.size for p in params]).tolist()
        plans.append((net, params, bounds, [radius * (1.0 + np.abs(p)) for p in params],
                      _stack_size(net.dims, data.n)))
    _, _, bounds, _, chunk = max(plans, key=lambda plan: plan[2][-1])
    total = bounds[-1]
    block = chunk * max(1, _CHUNK_ELEMENTS // (total * chunk))
    risks = [np.empty(samples) for _ in nets]
    for first in range(0, samples, block):
        u = _uniform_draws(seed64, first, min(first + block, samples), total)
        for (net, params, bounds, scales, chunk), out in zip(plans, risks):
            L = net.n_layers
            stacked = [
                p + s * u[:, a:b].reshape(-1, *p.shape)
                for p, s, a, b in zip(params, scales, bounds, bounds[1:])
            ]
            for start in range(0, len(u), chunk):
                part = [q[start:start + chunk] for q in stacked]
                _, post = _layer_outputs(part[:L], part[L:], net.activation, data.X1)
                stop = first + start + len(part[0])
                out[first + start:stop] = risk_of_outputs(post[-1], data.Y, loss)
    return risks


def perturbation_local_min_test(
    net: Mlp,
    data: Dataset,
    loss: LossKind,
    radius: float = _PROBE_RADIUS,
    samples: int = _PROBE_SAMPLES,
    seed: int = 0,
) -> Certificate:
    """Sample the perturbation ball around net and pass iff no draw drops the
    risk below the base risk minus rounding slack.

    Per-sample streams are seeded by seed XOR index, with the seed taken
    modulo 2**64 (a negative seed is masked), so any partition of the sample
    range reproduces the serial run.  A radius that is a bool or not a real
    number, or that is not finite and positive (an integer beyond the float
    range included; 0 would draw the network itself), a seed or sample count
    that is not an integer (a bool or a float included), and a non-finite
    risk at the network or at any draw, raise PreconditionViolated; all but
    the last are refused before any draw.
    """
    return _probe_certificates([net], data, loss, radius, samples, seed)[0]


def _probe_certificates(
    nets: list[Mlp], data: Dataset, loss: LossKind, radius: float, samples: int, seed: int
) -> list[Certificate]:
    """`perturbation_local_min_test` of every network, on one set of streams
    (`_shared_draw_risks`); each certificate is bit-identical to its
    network's own.  The first network, in order, whose risk is not finite
    raises; numpy's overflow and invalid-operation warnings on the way there
    are silenced, since the probe decides non-finite risks itself."""
    radius = check_real("radius", radius)
    if not (np.isfinite(radius) and radius >= 0):
        raise PreconditionViolated("radius must be finite and nonnegative")
    samples = check_integer("samples", samples, minimum=1)
    seed = check_integer("seed", seed)
    if radius == 0:
        raise PreconditionViolated("radius 0 makes the local-minimality test vacuous")
    with np.errstate(over="ignore", invalid="ignore"):
        bases = [empirical_risk(net, data, loss) for net in nets]  # checks shapes first
        all_risks = _shared_draw_risks(nets, data, loss, radius, samples, seed & 0xFFFFFFFFFFFFFFFF)
    certs = []
    for base, risks in zip(bases, all_risks):
        if not (np.isfinite(base) and np.isfinite(risks).all()):
            raise PreconditionViolated(
                f"risk is not finite at the network ({base}) or at some perturbed draw"
            )
        deltas = risks - base
        worst = deltas[np.argmin(deltas)]  # of equal deltas (0.0, -0.0), the first
        check = Check(
            "min_risk_delta", bool(worst >= LOCAL_MIN_SLACK), float(worst),
            LOCAL_MIN_SLACK, samples=samples, seed=seed,
        )
        certs.append(Certificate(subject="perturbation_local_min", checks=(check,)))
    return certs


def _descends(min_risk: float, witness_risk: float) -> bool:
    """The one descent rule: the gap risk(minimum) - risk(witness) exceeds
    DESCENT_GAP_MIN, which NaN never does.  Construction's witness search
    reads it per candidate, without building a certificate."""
    return bool(float(min_risk) - float(witness_risk) > DESCENT_GAP_MIN)


def descent_gap_certificate(min_risk: float, witness_risk: float) -> Certificate:
    """risk(minimum) - risk(witness), which a valid witness makes exceed
    DESCENT_GAP_MIN (`_descends`)."""
    gap = float(min_risk) - float(witness_risk)
    check = Check("descent_gap", _descends(min_risk, witness_risk), gap, DESCENT_GAP_MIN)
    return Certificate(subject="descent_gap", checks=(check,))


def fd_gradient_check(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
) -> float:
    """Max relative error between the analytic gradient and central
    differences (step FD_STEP) of fun at point."""
    point = np.asarray(point, dtype=float).reshape(-1)
    g = np.asarray(grad(point), dtype=float).reshape(-1)
    fd = np.empty_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = FD_STEP
        fd[i] = (fun(point + e) - fun(point - e)) / (2.0 * FD_STEP)
    scale = np.maximum(np.abs(g), np.maximum(np.abs(fd), 1.0))
    return float(np.max(np.abs(g - fd) / scale))


def _interval_margin(hidden_pre, lo: float, hi: float) -> np.floating | np.ndarray:
    """The worst-case margin of hidden pre-activations to either end of
    (lo, hi), over the last two axes of each layer: one number for one
    network's layers, one per network for layers stacked along a leading
    axis.  It is folded with np.minimum, so a NaN entry, or an infinite entry
    against an infinite end (inf - inf), makes it NaN."""
    margin, axes = np.inf, (-2, -1)
    for z in hidden_pre:
        margin = np.minimum(margin, np.minimum(z.min(axis=axes) - lo, hi - z.max(axis=axes)))
    return margin


def _interval_certificate(margin: float) -> Certificate:
    """The interval certificate of a margin (`_interval_margin`): it passes
    iff the margin is positive, which NaN never is."""
    check = Check("interval_margin", bool(margin > 0), float(margin), 0.0)
    return Certificate(subject="trace_interval", checks=(check,))


def trace_interval_check(trace: ForwardTrace, lo: float, hi: float) -> Certificate:
    """Assert every hidden pre-activation lies strictly inside (lo, hi),
    reporting the worst-case margin to either end (`_interval_margin`); a
    NaN margin fails the check."""
    return _interval_certificate(_interval_margin(trace.hidden_pre, lo, hi))


def _risk_match(risk: float, baseline_risk: float) -> Check:
    """The one risk-match rule, for every minimum, witness pair and family
    member: |risk - baseline risk| within RISK_MATCH_TOL * max(1, baseline
    risk), since the risk's rounding grows with its size.  NaN fails."""
    tol = RISK_MATCH_TOL * max(1.0, baseline_risk)
    deviation = float(abs(risk - baseline_risk))
    return Check("minimum_matches_baseline", bool(deviation <= tol), deviation, tol)

