"""The package's one quadrature engine and the kernels built on it, in pure Python.

de_integrate is the trapezoid rule on the whole line for a node function
that decays doubly exponentially, with step halving until two successive
refinements agree (Mori & Sugihara, J. Comput. Appl. Math. 127 (2001)).
It takes the node function alone: its step, depth and relative
tolerance are the fixed constants below, and it converges on relative
change only, so it is scale-free.  Its window is relative to the
integrand's own peak: level 0 scans each side until three nodes in a
row are at or below 2^-54 of the largest node seen, then keeps the nodes
above that floor and one guard node past them on each side.  Every
quadrature of the package runs on it, and every node sum on pairwise_sum.
The kernels map their integrals to the line by a double-exponential
change of variables:

  * plancherel_integral: r = exp((pi/2) sinh u) maps (0, inf) to the line;
    the integrand then decays doubly exponentially on both sides.
  * mellin_time_integral and bessel_k_integral: t = exp(u); the e^{-at}
    and e^{-b/t} factors each become doubly exponential in u.

plancherel_integrals and mellin_time_integrals return one function of t
or of s: the node values that do not depend on it are computed once per
node u and shared by every call, in one table of at most _NODE_TABLE_SIZE
nodes per function.

The returned tuple is (value, last_delta, level, converged); callers
decide whether a non-converged result is an error.

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
# table: a 10-t heat-trace call at n = 6 (t in [0.05, 2.5]) visits 513
# nodes, one at t = 1e-98 (level 10) 22,529; a full Plancherel table holds
# about 4 MB
_NODE_TABLE_SIZE = 16384
# a length-sorted geodesic sum adds CUT_BLOCK classes between two checks
# of its stop rule (tail_bounds), which drops a tail below 2^-54 of the sum
CUT_BLOCK = 64
# the one relative cut: of a geodesic sum's tail against its partial sum,
# and of a level-0 node against the largest node of its window
_CUT_REL = 2.0**-54


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


def _scan(node, step: float, top: float) -> tuple[list, float]:
    # level-0 nodes at step, 2 step, ... until three consecutive ones at or
    # below _CUT_REL of top, the largest finite |node| so far, which the
    # scan raises as it goes; a nan or inf node is never negligible
    vals = []
    run = 0
    inf = math.inf
    while len(vals) < _SCAN_LIMIT and run < 3:
        v = node((len(vals) + 1) * step)
        vals.append(v)
        a = abs(v)
        if top < a < inf:
            top = a
        run = run + 1 if a <= _CUT_REL * top else 0
    return vals, top


def _kept(vals: list, floor: float) -> int:
    # how many of one side's level-0 nodes the window keeps: up to its
    # outermost node above floor (or not finite), plus one guard past it
    n = len(vals)
    while n and abs(vals[n - 1]) <= floor:
        n -= 1
    return min(n + 1, len(vals))


def de_integrate(node):
    """Adaptive trapezoid on the whole line for a DE-decaying node function.

    Level 0 scans outward from u = 0 in steps of _H0, first up, then down,
    each side until three consecutive nodes are at or below 2^-54 (_CUT_REL)
    of top, the largest finite |node| seen so far, one running value from
    the centre over both sides.  The window is then trimmed to the nodes
    above 2^-54 top and one guard node past them on each side; the centre
    always stays.  A nan or inf node never raises top and never counts as
    negligible, so it stays in the window.  Deeper levels only add the
    odd-multiple nodes inside that fixed window, so refinement never moves
    the window and the node set is deterministic.  Level L converges when
    it differs from level L-1 by at most _REL_TOL |S|, for L up to
    _MAX_LEVEL: the one rule, so an integral of any size converges at the
    level its shape needs.  A non-finite estimate never converges, and it
    ends the refinement at once: halving the step cannot make it finite
    again.

    Returns (value, last_delta, level, converged).
    """
    center = node(0.0)
    top = abs(center)
    if not top < math.inf:
        top = 0.0
    pos_vals, top = _scan(node, _H0, top)
    neg_vals, top = _scan(node, -_H0, top)
    floor = _CUT_REL * top
    n_pos = _kept(pos_vals, floor)
    n_neg = _kept(neg_vals, floor)

    ordered = neg_vals[n_neg - 1::-1] + [center] + pos_vals[:n_pos]
    total = _H0 * pairwise_sum(ordered)
    if not math.isfinite(total):
        return total, math.inf, 0, False

    u_lo = -n_neg * _H0
    for level in range(1, _MAX_LEVEL + 1):
        h = _H0 / (1 << level)
        count = (n_pos + n_neg) << (level - 1)
        new_vals = [node(u_lo + (2 * j + 1) * h) for j in range(count)]
        refined = 0.5 * total + h * pairwise_sum(new_vals)
        delta = abs(refined - total)
        total = refined
        if not math.isfinite(total):
            return total, delta, level, False
        if delta <= _REL_TOL * abs(total):
            return total, delta, level, True
    return total, delta, level, False


def _tanh_pi_pos(r: float) -> float:
    # r > 0 here; the 1 - 2/(1+e^x) form never overflows, but it cancels for
    # x = 2 pi r below 1: 4e-12 relative error at r = 1e-5, and 0.0 from about
    # r = 1e-17.  The Plancherel node weights it by r^2, so no pinned integral
    # moves; plancherel.tanh_pi uses math.tanh there instead
    x = 2.0 * math.pi * r
    if x > 709.0:
        return 1.0
    return 1.0 - 2.0 / (1.0 + math.exp(x))


def plancherel_integrals(coeffs):
    """plancherel_integral for one coefficient set, as one function of t.

    Each t keeps its own window and level.  The node values that do not
    depend on t -- r^2, 2kx, |u| and (pi/2) cosh(u) r^2 P(r^2) tanh(pi r),
    with x = (pi/2) sinh u -- are computed once per node u and shared by
    every t, so only e^(-t r^2) and the cut-off test are per t.  Nodes where
    t e^{2x} - 2kx - |u| > 720 are exactly zero in double precision; they
    are skipped before P's value is used, so a P that overflows there is
    never read.
    """
    cs = [float(c) for c in coeffs]
    two_k = 2.0 * len(cs)
    entries = {}  # u -> (r^2, 2kx, |u|, (pi/2) cosh(u) r^2 P(r^2) tanh(pi r)), or () past 2x > 700

    def entry(u: float) -> tuple:
        x = _HALF_PI * math.sinh(u)
        two_x = 2.0 * x
        if two_x > 700.0:
            return ()
        r2 = math.exp(two_x)
        p_val = 0.0
        for c in reversed(cs):
            p_val = p_val * r2 + c
        weight = _HALF_PI * math.cosh(u) * r2
        return r2, two_k * x, abs(u), weight * p_val * _tanh_pi_pos(math.exp(x))

    def at(t: float):
        tt = float(t)
        exp = math.exp

        def node(u: float) -> float:
            e = entries.get(u)
            if e is None:
                e = entry(u)
                if len(entries) < _NODE_TABLE_SIZE:
                    entries[u] = e
            if not e:
                return 0.0
            r2, two_kx, abs_u, weight = e
            e_arg = tt * r2
            if e_arg - two_kx - abs_u > 720.0:
                return 0.0
            return weight * exp(-e_arg)

        return de_integrate(node)

    return at


def plancherel_integral(coeffs, t: float):
    """integral_0^inf r P(r^2) tanh(pi r) e^(-t r^2) dr.

    ``coeffs`` are the even-polynomial coefficients of P (degree k-1 in
    r^2).  The exp-sinh substitution r = exp((pi/2) sinh u) is used; nodes
    where t e^{2x} - 2kx - |u| > 720 (x = (pi/2) sinh u) are exactly zero
    in double precision and are skipped before P can overflow.  This is
    plancherel_integrals at one t.
    """
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
    at nodes that some s reaches.  Each s keeps its own window and level,
    anchored at u0 = log(q_k/alpha)/2, where the integrand of the shortest
    class k of nonzero amplitude peaks, and converges on relative change.

    The lengths must be nonnegative and ascending, as ManifoldData keeps
    them: the relative exponents of H then fall along the sum, which is
    geodesic_sum, cut where the rest is below 2^-54 of the partial sum.
    Adding those terms in order would leave every bit of H as it is.  A
    node whose exponent su u + lead is at or below -745 is 0.0 without its
    sum; one whose exponent leaves the float range is inf, so that
    estimate never converges.
    """
    ls = [float(x) for x in lengths]
    ams = [float(x) for x in amps]
    if len(ls) != len(ams):
        raise ValueError("lengths and amps must have equal size")
    if ls and (ls[0] < 0.0 or any(a > b for a, b in zip(ls, ls[1:]))):
        raise ValueError("lengths must be nonnegative and ascending")
    if not ls:
        return lambda s: (0.0, 0.0, 0, True)
    q0 = 0.25 * ls[0] * ls[0]
    blocks = cut_blocks(ams, [q0 - 0.25 * l * l for l in ls], ams)  # -(q_i - q_0)
    a = float(alpha)
    k = next((i for i, x in enumerate(ams) if x), 0)
    u0 = math.log(0.5 * ls[k] / math.sqrt(a)) if ls[k] > 0.0 and a > 0.0 else 0.0
    exp = math.exp
    entries = {}  # u -> [lead(u), e^-u, H(u) or None until some s needs it]

    def at(s: float):
        su = float(s) - 0.5

        def node(v: float) -> float:
            u = v + u0
            if u > 690.0 or u < -690.0:
                return 0.0
            e = entries.get(u)
            if e is None:
                eb = exp(-u)
                e = [-a * exp(u) - q0 * eb, eb, None]
                if len(entries) < _NODE_TABLE_SIZE:
                    entries[u] = e
            x = su * u + e[0]
            if x <= -745.0:
                return 0.0
            try:
                scale = exp(x)
            except OverflowError:
                return math.inf
            h = e[2]
            if h is None:
                h = e[2] = geodesic_sum(blocks, e[1])[0]
            return scale * h

        return de_integrate(node)

    return at


def mellin_time_integral(lengths, amps, alpha: float, s: float):
    """integral_0^inf t^(s-1) t^(-1/2) sum_i amps[i] e^(-alpha t - lengths[i]^2/(4t)) dt.

    Under t = e^u both tails decay doubly exponentially (alpha > 0 on the
    right, the shortest length on the left).  The lengths must be
    nonnegative and ascending.  This is mellin_time_integrals at one s.
    """
    return mellin_time_integrals(lengths, amps, alpha)(s)


def bessel_k_integral(nu: float, z: float):
    """integral_0^inf t^(-nu-1) e^(-t - z^2/(4t)) dt, the Bessel-K core.

    Multiplying by 2^(-nu-1) z^nu gives K_nu(z); that scaling is left to
    the caller so the kernel stays scale-free.  The package computes K_nu
    without it (heat_zeta.bessel_k); it is kept for the kernel timings of
    perfbench/backends.py.  Up to z = 100 it is within 1e-14 relative of
    mpmath.besselk.  Its window is the flaw: the level-0 scan starts at
    u = 0, and the peak lies near u = log(z/2).  From about z = 116 the
    level-0 nodes from u = 0 to 1.5 are all 0.0, so the window ends before
    the peak, and it returns 0.0 as converged.
    """
    z24 = 0.25 * float(z) * float(z)
    nn = float(nu)

    def node(u: float) -> float:
        if u > 690.0 or u < -690.0:
            return 0.0
        e_arg = -nn * u - math.exp(u) - z24 * math.exp(-u)
        if e_arg < -745.0:
            return 0.0
        return math.exp(e_arg)

    return de_integrate(node)
