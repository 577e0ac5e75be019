"""The package's one quadrature engine and the kernels built on it, in pure Python.

de_integrate is the trapezoid rule on the whole line for a node function
that decays doubly exponentially, with step halving until two successive
refinements agree (Mori & Sugihara, J. Comput. Appl. Math. 127 (2001)).
Its step, depth and relative tolerance are the fixed constants below;
only the absolute tolerance is a parameter.  Every quadrature of the
package runs on it, and every node sum on pairwise_sum.  The kernels map
their integrals to the line by a double-exponential change of variables:

  * plancherel_integral: r = exp((pi/2) sinh u) maps (0, inf) to the line;
    the integrand then decays doubly exponentially on both sides.
  * mellin_time_integral and bessel_k_integral: t = exp(u); the e^{-at}
    and e^{-b/t} factors each become doubly exponential in u.

The returned tuple is (value, last_delta, level, converged); callers
decide whether a non-converged result is an error.
"""

from __future__ import annotations

import functools
import math

_H0 = 0.5  # level-0 step
_MAX_LEVEL = 12  # step halvings at most
_ABS_TOL = 1e-12  # the kernels' default; zeta_moment_continued passes 1e-13
_REL_TOL = 1e-14
_SCAN_LIMIT = 400  # level-0 nodes per side; DE decay triggers far earlier
_NEGLIGIBLE = 1e-300
_HALF_PI = math.pi / 2.0
# node values kept per table of plancherel_integrals: a 10-t heat-trace call
# at n = 6 visits about 1500 nodes, one at t = 1e-98 (level 10) about 22,500,
# and a full _MAX_LEVEL window without converging can pass 100,000 (some
# 25 MB a table)
_NODE_TABLE_SIZE = 16384


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


def _scan(node, step: float) -> list:
    # level-0 nodes at step, 2 step, ... until three consecutive negligible ones
    vals = []
    run = 0
    while len(vals) < _SCAN_LIMIT and run < 3:
        v = node((len(vals) + 1) * step)
        vals.append(v)
        run = run + 1 if abs(v) <= _NEGLIGIBLE else 0
    return vals


def de_integrate(node, abs_tol: float = _ABS_TOL):
    """Adaptive trapezoid on the whole line for a DE-decaying node function.

    Level 0 scans outward from u = 0 in steps of _H0, first up, then down,
    until three consecutive negligible nodes fix the truncation window;
    deeper levels only add the odd-multiple nodes inside that fixed window,
    so refinement never moves the window and the node set is
    deterministic.  Level L converges when it differs from level L-1 by at
    most max(abs_tol, _REL_TOL |S|), for L up to _MAX_LEVEL.  A non-finite
    estimate never converges, and it ends the refinement at once: halving
    the step cannot make it finite again.

    Returns (value, last_delta, level, converged).
    """
    center = node(0.0)
    pos_vals = _scan(node, _H0)
    neg_vals = _scan(node, -_H0)
    n_pos = len(pos_vals)
    n_neg = len(neg_vals)

    ordered = neg_vals[::-1] + [center] + pos_vals
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
        if delta <= max(abs_tol, _REL_TOL * abs(total)):
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


def plancherel_integrals(coeff_sets):
    """plancherel_integral for every coefficient set, as one function of t.

    The returned function maps t to one result per entry of
    ``coeff_sets``; each integral keeps its own window and level.  The
    node values that depend on neither the set nor t -- x, r^2,
    (pi/2) cosh(u) r^2 and tanh(pi r) -- are computed once per node u and
    shared by every integral of every t; each set multiplies in its
    P(r^2) once per node, so only e^(-t r^2) and the cut-off test are
    per t.  The products are those of plancherel_integral's node, in the
    same order, so every result has the bits of a call of its own.
    """
    shared = {}  # u -> (x, r^2, (pi/2) cosh(u) r^2, tanh(pi r)), or () past 2x > 700

    def node_values(u: float) -> tuple:
        x = _HALF_PI * math.sinh(u)
        two_x = 2.0 * x
        if two_x > 700.0:
            return ()
        r2 = math.exp(two_x)
        return x, r2, _HALF_PI * math.cosh(u) * r2, _tanh_pi_pos(math.exp(x))

    def set_nodes(coeffs):
        # nodes where t e^{2x} - 2kx - |u| > 720 (x = (pi/2) sinh u) are
        # exactly zero in double precision; they are skipped before P's
        # value is used, so a P that overflows there is never read
        cs = [float(c) for c in coeffs]
        two_k = 2.0 * len(cs)
        entries = {}  # u -> (r^2, 2kx, |u|, (pi/2) cosh(u) r^2 P(r^2) tanh(pi r)), or ()

        def entry(u: float) -> tuple:
            values = shared.get(u)
            if values is None:
                values = node_values(u)
                if len(shared) < _NODE_TABLE_SIZE:
                    shared[u] = values
            if not values:
                return ()
            x, r2, weight, tanh_pi_r = values
            p_val = 0.0
            for c in reversed(cs):
                p_val = p_val * r2 + c
            return r2, two_k * x, abs(u), weight * p_val * tanh_pi_r

        def at(t: float):
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
                e_arg = t * r2
                if e_arg - two_kx - abs_u > 720.0:
                    return 0.0
                return weight * exp(-e_arg)

            return node

        return at

    nodes = [set_nodes(coeffs) for coeffs in coeff_sets]

    def values(t: float) -> list[tuple]:
        tt = float(t)
        return [de_integrate(at(tt)) for at in nodes]

    return values


def plancherel_integral(coeffs, t: float):
    """integral_0^inf r P(r^2) tanh(pi r) e^(-t r^2) dr.

    ``coeffs`` are the even-polynomial coefficients of P (degree k-1 in
    r^2).  The exp-sinh substitution r = exp((pi/2) sinh u) is used; nodes
    where t e^{2x} - 2kx - |u| > 720 (x = (pi/2) sinh u) are exactly zero
    in double precision and are skipped before P can overflow.  This is
    plancherel_integrals with one set and one t.
    """
    return plancherel_integrals((coeffs,))(t)[0]


def mellin_time_integral(lengths, amps, alpha: float, s: float):
    """integral_0^inf t^(s-1) t^(-1/2) sum_i amps[i] e^(-alpha t - lengths[i]^2/(4t)) dt.

    Under t = e^u both tails decay doubly exponentially (alpha > 0 on the
    right, the shortest length on the left).  The lengths must be
    nonnegative and ascending, as ManifoldData keeps them: the exponent of
    a node's geodesic terms then falls along the sum, which stops at the
    first term that would underflow.
    """
    ls = [float(x) for x in lengths]
    ams = [float(x) for x in amps]
    if len(ls) != len(ams):
        raise ValueError("lengths and amps must have equal size")
    if not ls:
        return 0.0, 0.0, 0, True
    if ls[0] < 0.0 or any(a > b for a, b in zip(ls, ls[1:])):
        raise ValueError("lengths must be nonnegative and ascending")
    quarters = [0.25 * l * l for l in ls]
    a = float(alpha)
    su = float(s) - 0.5

    exp = math.exp

    def node(u: float) -> float:
        if u > 690.0 or u < -690.0:
            return 0.0
        ea = exp(u)
        eb = exp(-u)
        acc = 0.0
        base = su * u - a * ea
        for q, amp in zip(quarters, ams):
            e_arg = base - q * eb
            if e_arg <= -745.0:
                break  # lengths ascend, so every later exponent is lower: all dropped
            acc += amp * exp(e_arg)
        return acc

    return de_integrate(node)


def bessel_k_integral(nu: float, z: float):
    """integral_0^inf t^(-nu-1) e^(-t - z^2/(4t)) dt, the Bessel-K core.

    Multiplying by 2^(-nu-1) z^nu gives K_nu(z); that scaling is left to
    the caller so the kernel stays scale-free.  The package computes K_nu
    without it (heat_zeta.bessel_k); it is kept for the kernel timings of
    perfbench/backends.py.  It loses accuracy for z above about 30, where
    the level-0 window scan misses the integrand's peak.
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
