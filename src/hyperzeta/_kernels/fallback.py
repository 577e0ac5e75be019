"""The package's one quadrature engine and the kernels built on it, in pure Python.

log_integrate is that engine: the trapezoid rule on the whole line for a
node function that decays doubly exponentially, with step halving until
two successive refinements agree (Mori & Sugihara, J. Comput. Appl.
Math. 127 (2001)).  It takes the node function alone: its step, depth and
relative tolerance are the fixed constants below, it converges on relative
change only, and its window is every level-0 node above 2^-54 of the
integrand's own peak.  Every node sum of the package is pairwise_sum.

Every kernel states its node by one contract, log_node(u) = (log|f(u)|,
sign), on log_integrate, which scans level 0 once and factors its largest
node out: no node is cut at a fixed exponent, and one is 0.0 only where
its log is -inf.  The kernels map their integrals to the line by a
double-exponential change of variables:

  * plancherel_integral and fermi_integral: r = exp((pi/2) sinh u);
  * mellin_time_integral (t = e^u) and bessel_k_integral (t = (z/2) e^u):
    the e^{-at} and e^{-b/t} factors each become doubly exponential in u.

Both r-kernels read P(r^2) in logs, so no coefficient is made a float
(they reach 1e315 at k = 100).  plancherel_integrals takes a log-sum-exp
over log c_l + 2 l x in its node, whose bits heat_trace_snapshot.json pins.
fermi_integral takes _log_poly, Horner's rule on coefficients scaled once
per call into e^(+-362) at the cap, in k multiply-adds per node; within
1.3 eps (1 + |log P|) of 40-digit mpmath.

log_integrate and every kernel return one shape, (mantissa, last_delta,
level, converged, scale), for the value mantissa e^scale, with last_delta
in units of the mantissa; no kernel forms the value as a float.  Callers
decide what to do with a result that is past the float range or did not
converge.

The geodesic sums of the package (the heat sum, the Bessel route and the
time route's geodesic_sum) walk CUT_BLOCK blocks that cut_blocks builds
once per call, for every node or heat time, and share one stop rule: stops
ends a sum before class K once S_K (suffix_bounds) times class K's own
factor is at most 2^-54 of the partial sum.
"""

from __future__ import annotations

import functools
import math

_H0 = 0.5  # level-0 step
_MAX_LEVEL = 12  # step halvings at most
_REL_TOL = 1e-14
_SCAN_LIMIT = 400  # level-0 nodes per side; DE decay triggers far earlier
_HALF_PI = math.pi / 2.0
# node values kept by one plancherel_integrals or mellin_time_integrals
# table: a 10-t heat-trace call at n = 6 (t in [0.05, 2.5]) keeps 325
# nodes, one t = 1e-98 4,110; a full Plancherel table holds about 3 MB
_NODE_TABLE_SIZE = 16384
# a length-sorted geodesic sum adds CUT_BLOCK classes between two checks
# of its stop rule (tail_bounds), which drops a tail below 2^-54 of the sum
CUT_BLOCK = 64
# the one relative cut: of a geodesic sum's tail against its partial sum,
# and of a level-0 node against the largest node of level 0
_CUT_REL = 2.0**-54
_LOG_CUT = math.log(_CUT_REL)
# the widest span of log c_l that _scaled_coeffs takes: the scaled
# coefficients then lie within e^(+-650), far enough inside the normal
# floats that no Horner partial sum of _log_poly overflows and no product
# that underflows is above an ulp of the sum
_MAX_LOG_SPAN = 1300.0


@functools.lru_cache(maxsize=128)
def _pairwise_plan(n: int) -> tuple:
    # the tree in postfix order: a block (lo, hi), or None to add the two
    # partial sums on top.  Built once per length, so its recursion is cold.
    def walk(lo: int, hi: int) -> list:
        if hi - lo <= 8:
            return [(lo, hi)]
        mid = (lo + hi) // 2
        return walk(lo, mid) + walk(mid, hi) + [None]

    return tuple(walk(0, n))


def pairwise_sum(vals: list) -> float:
    """Sum in a fixed pairwise tree: halve at the midpoint, add blocks of <= 8 in order.

    The tree depends on len(vals) alone, so the result is reproducible to
    the bit.  It is evaluated without recursion, from a stack of partial
    sums: each block is added from 0.0, and each join adds left + right.
    """
    stack = []
    for step in _pairwise_plan(len(vals)):
        if step is None:
            right = stack.pop()
            stack[-1] += right
        else:
            acc = 0.0
            for v in vals[step[0]:step[1]]:
                acc += v
            stack.append(acc)
    return stack[0]


def suffix_bounds(amps) -> list:
    """S_i >= sum over j >= i of |amps[j]|, for i = 0..len(amps); the last is 0.0.

    Built once per call from the end, each step rounded up to the next
    float, so every S_i bounds the exact suffix sum.  A suffix past the
    float range is inf, and a nan amplitude makes every S_i up to it nan;
    neither ever stops a sum (tail_bounds).
    """
    bounds = [0.0]
    nextafter, inf = math.nextafter, math.inf
    for a in reversed(amps):
        bounds.append(nextafter(bounds[-1] + abs(a), inf))
    bounds.reverse()
    return bounds


def stops(tail: float, partial: float) -> bool:
    """The stop rule of a length-sorted sum, before the block that starts at class K.

    True when ``tail`` (S_K times a bound on the factor of every class from
    K on) is finite and at most 2^-54 of |partial|: each term left out is
    below half an ulp of it.  A bound that overflows, or is nan, never stops.
    """
    return tail < math.inf and tail <= _CUT_REL * abs(partial)


def tail_bounds(bound: float, factors, partials):
    """stops for each sum of one spectrum: the tails S_K f if every one stops, else None."""
    tails = [bound * f for f in factors]
    for tail, partial in zip(tails, partials):
        if not stops(tail, partial):
            return None
    return tails


def cut_blocks(amps, *columns) -> list:
    """A length-sorted sum's blocks, one per CUT_BLOCK classes from class K.

    Each is (K, S_K of suffix_bounds(amps), each column's slice from K on)."""
    bounds = suffix_bounds(amps)
    return [
        (lo, bounds[lo]) + tuple(column[lo:lo + CUT_BLOCK] for column in columns)
        for lo in range(0, len(amps), CUT_BLOCK)
    ]


def _exp(x: float) -> float:
    # e^x, or inf past the float range
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_integrate(log_node):
    """Adaptive trapezoid on the whole line for a DE-decaying node function, in logs.

    ``log_node(u)`` is (log|f(u)|, sign).  Level 0 is scanned once, outward
    from u = 0 in steps of _H0, first up, then down, each side until three
    consecutive log-nodes are at or below log 2^-54 (_LOG_CUT) under top,
    the largest finite log-node seen so far, one running value from u = 0
    over both sides.  top is the scale: each node is sign e^(log|f| - top),
    so the largest level-0 node is 1.0, one that rises more than e^709
    above it is inf, and one is 0.0 only where its log is -inf.  The window
    is every scanned node above 2^-54 (_CUT_REL), with one guard node past
    it on each side; it holds every peak the scan saw.  A nan or inf node
    never raises top and is never negligible, so it stays in the window.
    Deeper levels only add the odd-multiple nodes inside that fixed window,
    so refinement never moves the window and the node set is
    deterministic.  Level L converges when it differs from level L-1 by at
    most _REL_TOL |S|, for L up to _MAX_LEVEL: the one rule, so an integral
    of any size converges at the level its shape needs.  A non-finite
    estimate never converges, and it ends the refinement at once: halving
    the step cannot make it finite again.

    Returns (mantissa, delta, level, converged, scale): the integral is
    mantissa e^scale, and delta is in units of the mantissa.
    """
    top = -math.inf
    sides = []
    for first, step in ((0, _H0), (1, -_H0)):  # the first node, u = 0, is never negligible
        side = []
        run = 0
        for j in range(first, _SCAN_LIMIT + 1):
            v, sign = log_node(j * step)
            side.append((v, sign))
            if top < v < math.inf:
                top = v
            run = run + 1 if v - top <= _LOG_CUT else 0
            if run == 3:
                break
        sides.append(side)
    up, down = sides
    level0 = [sign * _exp(v - top) for v, sign in down[::-1] + up]
    live = [i for i, x in enumerate(level0) if not abs(x) <= _CUT_REL]
    lo, hi = max(live[0] - 1, 0), min(live[-1] + 1, len(level0) - 1)

    total = _H0 * pairwise_sum(level0[lo:hi + 1])
    if not math.isfinite(total):
        return total, math.inf, 0, False, top

    u_lo = (lo - len(down)) * _H0
    for level in range(1, _MAX_LEVEL + 1):
        h = _H0 / (1 << level)
        new_vals = []
        for j in range((hi - lo) << (level - 1)):
            v, sign = log_node(u_lo + (2 * j + 1) * h)
            new_vals.append(sign * _exp(v - top))
        refined = 0.5 * total + h * pairwise_sum(new_vals)
        delta = abs(refined - total)
        total = refined
        if not math.isfinite(total):
            return total, delta, level, False, top
        if delta <= _REL_TOL * abs(total):
            return total, delta, level, True, top
    return total, delta, level, False, top


def plancherel_integrals(coeffs):
    """plancherel_integral for one coefficient set, as one function of t.

    With x = (pi/2) sinh u and r = e^x, node u's t-free part is (r^2, log w,
    x), log w = log((pi/2) cosh u) + 2x + log P(r^2) + log tanh(pi r),
    computed once per node and shared by every t; the log-node of t is
    log w - t r^2 (t r^2 as e^(log t + 2x) where r^2 is past the float
    range), so each t keeps its own scale, window and level.  tanh(y),
    y = pi r, is -expm1(-2y) / (1 + e^(-2y)), and its log is the series
    log pi + x - y^2/3 below y = 1e-5, where r may underflow.
    """
    terms = [(log_c, 2.0 * l) for l, log_c in enumerate(_log_coeffs(coeffs))]
    entries = {}  # u -> (r^2, log w, x)

    def entry(u: float) -> tuple:
        # x = (pi/2) sinh u, and weight is (pi/2) cosh u P(r^2) e^-top: log P(r^2)
        # is a log-sum-exp over log c_l + 2 l x, never c_l as a float
        x = _HALF_PI * math.sinh(u)
        logs = [log_c + two_l * x for log_c, two_l in terms]
        top = max(logs)
        weight = _HALF_PI * math.cosh(u) * math.fsum([math.exp(v - top) for v in logs])
        r2 = _exp(x + x)
        y = math.pi * math.sqrt(r2)
        if y < 1e-5:
            return r2, math.log(math.pi * weight) + 3.0 * x + top - y * y / 3.0, x
        weight = weight * -math.expm1(-2.0 * y) / (1.0 + math.exp(-2.0 * y))  # times tanh(y)
        return r2, math.log(weight) + top + x + x, x

    def at(t: float):
        def log_node(u: float) -> tuple:
            e = entries.get(u)
            if e is None:
                e = entry(u)
                if len(entries) < _NODE_TABLE_SIZE:
                    entries[u] = e
            r2, log_w, x = e
            return log_w - (t * r2 if r2 < math.inf else _exp(math.log(t) + x + x)), 1.0

        return log_integrate(log_node)

    return at


def plancherel_integral(coeffs, t: float):
    """integral_0^inf r P(r^2) tanh(pi r) e^(-t r^2) dr: plancherel_integrals at one t.

    ``coeffs`` are P's positive coefficients (floats, ints or Fractions) in powers of r^2."""
    return plancherel_integrals(coeffs)(t)


def geodesic_sum(blocks, eb: float) -> tuple[float, float, int]:
    """H = sum_i amps[i] e^(-gaps[i] eb) in order, cut by the stop rule.

    ``blocks`` are cut_blocks(amps, neg_gaps, amps), with neg_gaps[i] =
    -gaps[i]; the gaps ascend from 0, so before the block that starts at
    class K every later term is at most S_K e^(-gaps[K] eb).  The sum stops
    there once that bound stops it.  Returns H, that bound (0.0 when every
    class is in) and the number of classes in H.
    """
    exp = math.exp
    acc = 0.0
    kept = 0
    for first, bound, neg_gaps, amps in blocks:
        tail = bound * exp(neg_gaps[0] * eb)
        if stops(tail, acc):
            return acc, tail, first
        for neg_gap, amp in zip(neg_gaps, amps):
            acc += amp * exp(neg_gap * eb)
        kept = first + len(amps)
    return acc, 0.0, kept


def mellin_time_integrals(lengths, amps, alpha: float):
    """mellin_time_integral for one spectrum and shift, as one function of s.

    With su = s - 1/2 and q_i = lengths[i]^2 / 4, the node at u = log t is
    H(u) e^(su u + lead(u)), where lead(u) = -alpha e^u - q_0 e^-u is the
    exponent of the shortest geodesic and H(u) = sum_i amps[i]
    e^(-(q_i - q_0) e^-u).  Neither lead nor H depends on s, so both sit in
    one table keyed by the node u and shared by every s; H is summed only
    at nodes that some s reaches.  The log-node of s is su u + lead(u) +
    log|H(u)|, with the sign of H, so each s keeps its own scale, window and
    level.  Its scan starts at u0 = log(q_k/alpha)/2, where the integrand
    of the shortest class k of nonzero amplitude peaks.

    The lengths must be nonnegative and ascending, as ManifoldData keeps
    them: the relative exponents of H then fall along the sum, which is
    geodesic_sum, cut where the rest is below 2^-54 of the partial sum.
    Adding those terms in order would leave every bit of H as it is.
    """
    ls = [float(x) for x in lengths]
    ams = [float(x) for x in amps]
    if len(ls) != len(ams):
        raise ValueError("lengths and amps must have equal size")
    if ls and (ls[0] < 0.0 or any(a > b for a, b in zip(ls, ls[1:]))):
        raise ValueError("lengths must be nonnegative and ascending")
    if not any(ams):
        return lambda s: (0.0, 0.0, 0, True, 0.0)
    q0 = 0.25 * ls[0] * ls[0]
    blocks = cut_blocks(ams, [q0 - 0.25 * l * l for l in ls], ams)  # -(q_i - q_0)
    a = float(alpha)
    k = next(i for i, x in enumerate(ams) if x)
    u0 = math.log(0.5 * ls[k] / math.sqrt(a)) if ls[k] > 0.0 and a > 0.0 else 0.0
    entries = {}  # u -> [lead(u), e^-u, H(u) or None until some s needs it]

    def at(s: float):
        su = float(s) - 0.5

        def log_node(v: float) -> tuple:
            u = v + u0
            e = entries.get(u)
            if e is None:
                eb = _exp(-u)
                e = [-a * _exp(u) - q0 * eb, eb, None]
                if len(entries) < _NODE_TABLE_SIZE:
                    entries[u] = e
            h = e[2]
            if h is None:  # no sum where e^u or e^-u is past the float range
                h = e[2] = geodesic_sum(blocks, e[1])[0] if e[0] > -math.inf else 0.0
            return su * u + e[0] + (math.log(abs(h)) if h else -math.inf), math.copysign(1.0, h)

        return log_integrate(log_node)

    return at


def mellin_time_integral(lengths, amps, alpha: float, s: float):
    """integral_0^inf t^(s-1) t^(-1/2) sum_i amps[i] e^(-alpha t - lengths[i]^2/(4t)) dt.

    mellin_time_integrals at one s; the lengths must be nonnegative and ascending."""
    return mellin_time_integrals(lengths, amps, alpha)(s)


def bessel_k_integral(nu: float, z: float):
    """integral_0^inf t^(-nu-1) e^(-t - z^2/(4t)) dt, the Bessel-K core.

    Multiplying by 2^(-nu-1) z^nu gives K_nu(z); that scaling is left to
    the caller so the kernel stays scale-free.  The package computes K_nu
    without it (heat_zeta.bessel_k); it is kept for the kernel timings of
    perfbench/backends.py.  Under t = (z/2) e^w it is (z/2)^-nu e^-z times
    the integral of e^(-nu w - 2z sinh(w/2)^2) over the line, whose
    log-node is near 0 at its peak at any z; the factor joins its scale.
    """
    zz, nn = float(z), float(nu)

    def log_node(w: float) -> tuple:
        half_sinh = math.sinh(0.5 * w)
        return -nn * w - 2.0 * zz * half_sinh * half_sinh, 1.0

    mantissa, delta, level, converged, scale = log_integrate(log_node)
    return mantissa, delta, level, converged, scale - nn * math.log(0.5 * zz) - zz


def _log_coeffs(coeffs) -> list:
    # log c_l for P's positive coefficients, never c_l as a float
    return [math.log(c) if isinstance(c, float) else
            math.log(c.numerator) - math.log(c.denominator) for c in coeffs]


def _scaled_coeffs(coeffs) -> tuple[float, list]:
    """(mid, d) for P's positive coefficients c_l: d_l = e^(log c_l - mid).

    mid is the midpoint of the largest and smallest log c_l, so every d_l
    lies within e^(+-span/2).  A span above _MAX_LOG_SPAN raises
    ValueError; at the cap the span is at most 723 (k = 100, q = 99).
    """
    logs = _log_coeffs(coeffs)
    hi, lo = max(logs), min(logs)
    if hi - lo > _MAX_LOG_SPAN:
        raise ValueError(
            f"coefficient logs span {hi - lo:.1f}, above the scaled Horner rule's {_MAX_LOG_SPAN}"
        )
    mid = 0.5 * (hi + lo)
    return mid, [math.exp(v - mid) for v in logs]


def _log_poly(coeffs):
    """log P(e^(2x)) as a function of x, by Horner's rule on _scaled_coeffs.

    For x <= 0 the rule runs in r^2 = e^(2x) <= 1 from the top coefficient
    down, and log P = mid + log(acc); for x > 0 it runs in e^(-2x) < 1 from
    d_0 up, and log P = mid + 2(k-1)x + log(acc).  On positive coefficients
    at a positive argument its relative error is at most gamma_2k (Higham,
    Accuracy and Stability of Numerical Algorithms, 5.1).  Each partial sum
    is at least its first d_l and at most the sum of all, so inside the
    span limit none leaves the normal floats, and a product that underflows
    is below an ulp of the d_l added to it.  r^2 past the float range (x
    = +-4700) gives a finite log.
    """
    mid, up = _scaled_coeffs(coeffs)
    down = up[::-1]
    top_power = 2.0 * (len(up) - 1)

    def log_p(x: float) -> float:
        acc = 0.0
        if x <= 0.0:
            z = math.exp(x + x)
            for d in down:
                acc = acc * z + d
            return mid + math.log(acc)
        z = math.exp(-x - x)
        for d in up:
            acc = acc * z + d
        return mid + top_power * x + math.log(acc)

    return log_p


def fermi_integral(coeffs):
    """integral_0^inf r P(r^2) / (1 + e^(2 pi r)) dr, on the nodes r = exp((pi/2) sinh u).

    The log-node is log((pi/2) cosh u) + log P(r^2) + 2x - y - log1p(e^-y),
    x = (pi/2) sinh u and y = 2 pi r, with log P(r^2) from _log_poly, the
    scaled Horner rule; where r^2 is past the float range the node's log is
    -inf.  At the cap the scaled coefficients lie within e^(+-362); a set
    whose logs span more than _MAX_LOG_SPAN raises ValueError.  On the
    seven sectors verify grades, up to k = 100, F is within 9.4e-14 of the
    exact Bernoulli sum, relative.
    """
    log_p = _log_poly(coeffs)

    def log_node(u: float) -> tuple:
        x = _HALF_PI * math.sinh(u)
        y = 2.0 * math.pi * math.sqrt(_exp(x + x))
        return (math.log(_HALF_PI * math.cosh(u)) + log_p(x) + x + x
                - y - math.log1p(math.exp(-y))), 1.0

    return log_integrate(log_node)
