"""Independent numpy/scipy evaluation of the co-exact heat-trace parts.

Used to check heat-trace output.  It shares no code with the package: the
manifold file is read as plain JSON, the Plancherel polynomial is expanded
from its roots in floating point, and the identity integral is split as
tanh(pi r) = 1 - 2/(1 + e^(2 pi r)), so the polynomial part has the closed
form l!/(2 t^(l+1)) per moment and only the Fermi remainder is integrated
numerically (scipy quad instead of the package's double-exponential rule).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate


class HeatReference:
    def __init__(self, doc: dict):
        n = int(doc["dimension"])
        self.n, self.k = n, n // 2
        self.rho0_sq = ((n - 1) / 2.0) ** 2
        self.identity_norm = float(doc["volume"]) * float(doc.get("chi_one", 1.0))
        geos = doc.get("geodesics", [])
        lengths = np.array([float(g["length"]) for g in geos])
        power = np.array([float(g.get("power", 1)) for g in geos])
        chi = np.array([float(g.get("chi", 1.0)) for g in geos])
        rho0 = (n - 1) / 2.0
        c = np.array([
            float(g["c"]) if "c" in g
            else math.exp(-rho0 * g["length"]) * (1.0 - math.exp(-g["length"])) ** (1 - n)
            for g in geos
        ])
        self.lengths = lengths
        self.base_amp = chi / power * lengths * c
        self.holonomy = [g.get("holonomy", "trivial") for g in geos]
        self._fermi: dict[float, list[float]] = {}

    def _character(self, q: int) -> np.ndarray:
        trivial = float(math.comb(self.n - 1, q))
        return np.array([trivial if h == "trivial" else float(h[q]) for h in self.holonomy])

    def _poly_coefficients(self, q: int) -> np.ndarray:
        k = self.k
        q = q if q <= k - 1 else 2 * k - 1 - q
        shifts = [(k - ell + 1.5) ** 2 for ell in range(2, q + 2)]
        shifts += [(k - ell + 0.5) ** 2 for ell in range(q + 2, k + 1)]
        return npoly.polyfromroots([-c for c in shifts]) if shifts else np.array([1.0])

    def _fermi_moments(self, t: float) -> list[float]:
        # integral_0^inf r^(2l+1) e^(-t r^2) 2/(1 + e^(2 pi r)) dr, l = 0..k-1
        if t not in self._fermi:
            def f(r, ell):
                x = math.exp(-2.0 * math.pi * r)
                return r ** (2 * ell + 1) * math.exp(-t * r * r) * 2.0 * x / (1.0 + x)

            self._fermi[t] = [
                integrate.quad(f, 0.0, 40.0, args=(ell,), epsabs=1e-15, epsrel=1e-13,
                               limit=200)[0]
                for ell in range(self.k)
            ]
        return self._fermi[t]

    def identity(self, q: int, t: float) -> float:
        if q == -1:
            return 0.0
        k = self.k
        fermi = self._fermi_moments(t)
        moment = sum(
            a * (math.factorial(ell) / (2.0 * t ** (ell + 1)) - fermi[ell])
            for ell, a in enumerate(self._poly_coefficients(q))
        )
        norm = (
            math.pi / (2.0 ** (4 * k - 4) * math.factorial(k - 1) ** 2)
            * math.comb(self.n - 1, q) * self.identity_norm / (4.0 * math.pi)
        )
        return norm * 2.0 * math.exp(-t * (q + self.rho0_sq)) * moment

    def hyperbolic(self, q: int, t: float) -> float:
        if q == -1 or self.lengths.size == 0:
            return 0.0
        terms = self.base_amp * self._character(q) * np.exp(
            -t * (q + self.rho0_sq) - self.lengths ** 2 / (4.0 * t)
        )
        return math.fsum(terms.tolist()) / math.sqrt(4.0 * math.pi * t)

    def coexact_parts(self, p: int, t: float) -> tuple[float, float]:
        """(identity, hyperbolic) parts of the co-exact p-form heat trace at t."""
        identity = hyperbolic = 0.0
        for j in range(p + 1):
            sign = -1.0 if j % 2 else 1.0
            identity += sign * (self.identity(p - j, t) + self.identity(p - j - 1, t))
            hyperbolic += sign * (self.hyperbolic(p - j, t) + self.hyperbolic(p - j - 1, t))
        return identity, hyperbolic
