"""Pinned exact outputs of the anomaly routes beyond the published tables.

``tests/data/exact_snapshot.json`` holds ``exact_str`` and a digest of the
per-(j, l) breakdown (built by the test reference in identity_reference.py,
not by the package) for every (n, p) with n = 2..40 even and p < n/2 at
the default shift, the conformal scalar for n = 2..40, and a few shifts
whose alpha has other denominators (massive scalars, alpha = 29/4).  Any
rewrite of the exact core must reproduce every entry.

Regenerate (only from a commit whose exact core is trusted) with

    PYTHONPATH=src python tests/test_exact_snapshot.py > tests/data/exact_snapshot.json
"""

import hashlib
import json
import pathlib
from fractions import Fraction

from identity_reference import reference_breakdown

from hyperzeta.anomaly import (
    AnomalySpec,
    alpha_conformal_scalar,
    alpha_default,
    alpha_massive_scalar,
    conformal_anomaly,
    conformal_scalar_anomaly,
)

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "exact_snapshot.json"

_DIMS = range(2, 41, 2)
_MASSES = ("1/3", "7/5", "2")
_MASSIVE_DIMS = (2, 4, 10, 24)


def _breakdown_digest(n: int, p: int, alpha: Fraction) -> str:
    lines = "".join(f"{j} {ell} {term}\n" for j, ell, term in reference_breakdown(n, p, alpha))
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


def _alpha(case: dict) -> Fraction:
    n, p = case["n"], case.get("p", 0)
    if case["mode"] == "conformal-scalar":
        return alpha_conformal_scalar(n)
    if case["mode"] == "default":
        return alpha_default(n, p)
    if case["mode"] == "massive":
        return alpha_massive_scalar(n, Fraction(case["mass_sq"]))
    return Fraction(case["alpha"])


def _record(case: dict) -> dict:
    n, p, alpha = case["n"], case.get("p", 0), _alpha(case)
    if case["mode"] == "conformal-scalar":
        value = conformal_scalar_anomaly(n)
    else:
        value = conformal_anomaly(AnomalySpec(dimension=n, form_order=p, alpha=alpha))
    return {
        **case,
        "exact": value.exact_str(),
        "breakdown_sha256": _breakdown_digest(n, p, alpha),
    }


def _cases() -> list[dict]:
    cases = [{"mode": "default", "n": n, "p": p} for n in _DIMS for p in range(n // 2)]
    cases += [{"mode": "conformal-scalar", "n": n} for n in _DIMS]
    cases += [
        {"mode": "massive", "n": n, "p": p, "mass_sq": m}
        for n in _MASSIVE_DIMS
        for p in sorted({0, n // 2 - 1})
        for m in _MASSES
    ]
    cases.append({"mode": "alpha", "n": 6, "p": 1, "alpha": "29/4"})
    return cases


def test_exact_outputs_match_snapshot():
    pinned = json.loads(SNAPSHOT.read_text())
    cases = _cases()
    assert len(pinned) == len(cases)
    for case, entry in zip(cases, pinned):
        assert _record(case) == entry, case


if __name__ == "__main__":
    print(json.dumps([_record(case) for case in _cases()], indent=1))
