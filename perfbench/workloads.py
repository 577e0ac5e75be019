"""The four benchmark workloads: seeded inputs, op argv, and output checks.

Each workload is a closed loop of CLI ops grouped into rounds.  A round is
the smallest seed-independent multiset of op kinds (every n for
exact-sweep, both form orders for zeta-check, one op otherwise), so a run
of whole rounds does the same mix of work for every seed; the seed only
picks the order and the continuous parameters.  ``round_s`` converts
--seconds into a number of rounds, so a run is a fixed amount of work.
``check`` returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"
EXACT_DIMS = tuple(range(24, 46, 2))


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


class Workload:
    name = ""
    why = ""
    round_s = 1.0  # seconds one round took at the commit that added the benchmark
    trace_rounds = 1  # rounds of the traced phase

    def prepare(self, run_op, workdir: Path, seed: int) -> None:
        """Write the seed-fixed input files through the program itself."""

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def rounds(self, seed: int):
        """Endless iterator of rounds; each round is a list of argv lists."""
        raise NotImplementedError

    def check(self, argv: list[str], out: str) -> str | None:
        raise NotImplementedError


def _synth(run_op, path: Path, seed: int, count: int, dim: int) -> None:
    op = run_op([
        "synth-spectrum", "--seed", str(seed), "--count", str(count),
        "--max-power", "3", "--dim", str(dim), "--out", str(path),
    ])
    if op.rc != 0:
        raise RuntimeError(f"synth-spectrum failed (exit {op.rc}): {op.error or op.err}")


class ExactSweep(Workload):
    name = "exact-sweep"
    why = ("exact core at high n: Fraction products in the Plancherel expansion; "
           "n values repeat, so a per-key cache both hits and misses")
    round_s = 8.0

    def __init__(self, smoke: bool = False, refs_dir: Path = REFS_DIR):
        self.dims = EXACT_DIMS[:2] if smoke else EXACT_DIMS
        self.refs_dir = Path(refs_dir)
        if smoke:
            self.round_s = 0.5

    @staticmethod
    def _argv(n: int) -> list[str]:
        forms = [str(p) for p in range(n // 2)]
        return ["table", "--which", "custom", "--dims", str(n), "--forms", *forms,
                "--format", "csv"]

    def warmup_argv(self) -> list[str]:
        return self._argv(self.dims[len(self.dims) // 2])

    def rounds(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            dims = list(self.dims)
            rng.shuffle(dims)
            yield [self._argv(n) for n in dims]

    def check(self, argv, out):
        n = int(argv[argv.index("--dims") + 1])
        ref = self.refs_dir / f"table_n{n}.csv"
        if out.encode("ascii", "replace") != ref.read_bytes():
            return f"n={n}: CSV differs from {ref.name}"
        return None


class HeatTrace(Workload):
    name = "heat-trace"
    why = ("6000-class n=6 spectrum, 10 heat times per op: per-geodesic amplitude "
           "rebuild and hyperbolic sums, plus load_manifold on every op")
    round_s = 0.7
    trace_rounds = 5
    form = 2
    # 10 heat times per op rather than 50: an 18-second run then has 26 ops,
    # and op_tail_s needs 11 or more; the amplitude rebuild is per t either way
    n_times = 10

    def __init__(self, smoke: bool = False):
        self.count = 20 if smoke else 2000
        if smoke:
            self.round_s = 0.05
        self.path: Path | None = None
        self._reference = None

    def prepare(self, run_op, workdir, seed):
        self.path = workdir / "heat-spectrum.json"
        _synth(run_op, self.path, _rng(self.name, "spectrum", seed).randrange(2**31),
               self.count, 6)

    def _argv(self, rng) -> list[str]:
        times = [f"{rng.uniform(0.05, 2.5):.6g}" for _ in range(self.n_times)]
        return ["heat-trace", "--manifold", str(self.path), "--form", str(self.form),
                "--t", *times]

    def warmup_argv(self):
        return self._argv(_rng(self.name, "warmup"))

    def rounds(self, seed):
        rng = _rng(self.name, seed)
        while True:
            yield [self._argv(rng)]

    def check(self, argv, out):
        if self._reference is None:
            from reference import HeatReference

            self._reference = HeatReference(json.loads(self.path.read_text()))
        times = [float(t) for t in argv[argv.index("--t") + 1:]]
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in out.splitlines()[2:]
        ]
        if len(rows) != len(times):
            return f"expected {len(times)} rows, got {len(rows)}"
        for t, row in zip(times, rows):
            identity, hyperbolic = self._reference.coexact_parts(self.form, t)
            for label, printed, want in (
                ("identity", row[1], identity), ("hyperbolic", row[2], hyperbolic),
            ):
                if not _matches_printed(printed, want):
                    return f"t={t:g}: {label} printed {printed}, reference {want:.12g}"
        return None


def _matches_printed(printed: str, want: float) -> bool:
    """True when `want` rounds to `printed` at the printed significant digits."""
    got = float(printed)
    if got == 0.0:
        return abs(want) < 1e-300
    mantissa = printed.lower().split("e")[0].lstrip("+-")
    digits = len(mantissa.replace(".", "").lstrip("0")) or 1
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(got))) - digits + 1)
    return abs(got - want) <= half_ulp * (1.0 + 1e-6) + 1e-9 * abs(want)


class ZetaCheck(Workload):
    name = "zeta-check"
    why = ("kernel-bound: one Bessel-K quadrature per geodesic per s plus the Mellin "
           "time quadrature; uses the amplitude layer far less than heat-trace")
    round_s = 0.8
    trace_rounds = 10
    _ok = re.compile(r"^s=\S+: bessel=\S+ quadrature=\S+ rel=\S+ \[ok\]$")
    _ratio = re.compile(r"f\(1e-2\)/f\(1e-3\) = (\S+)")

    def __init__(self, smoke: bool = False):
        self.count = 10 if smoke else 500
        self.path: Path | None = None
        if smoke:
            self.round_s = 0.05

    def prepare(self, run_op, workdir, seed):
        self.path = workdir / "zeta-spectrum.json"
        _synth(run_op, self.path, _rng(self.name, "spectrum", seed).randrange(2**31),
               self.count, 4)

    def _argv(self, p: int, s_values) -> list[str]:
        return ["zeta-check", "--manifold", str(self.path), "--form", str(p),
                "--s", *s_values]

    def warmup_argv(self):
        return self._argv(0, ["0.3", "0.5", "0.7"])

    def rounds(self, seed):
        rng = _rng(self.name, seed)
        while True:
            forms = [0, 1]
            rng.shuffle(forms)
            yield [
                self._argv(p, [f"{rng.uniform(0.1, 0.9):.6g}" for _ in range(3)])
                for p in forms
            ]

    def check(self, argv, out):
        n_s = len(argv) - argv.index("--s") - 1
        n_ok = sum(1 for line in out.splitlines() if self._ok.match(line))
        if n_ok != n_s:
            return f"{n_ok}/{n_s} s values within the Bessel-vs-quadrature tolerance"
        m = self._ratio.search(out)
        if m is None:
            return "no s->0 scaling ratio printed"
        ratio = float(m.group(1))
        if not 9.8 <= ratio <= 10.2:
            return f"s->0 ratio {ratio} outside [9.8, 10.2]"
        return None


class VerifyFull(Workload):
    name = "verify-full"
    why = ("the full self-check suite: 130-digit mpmath quadrature and deep Bernoulli "
           "series through the exact layer, no polynomial work; seed-independent")
    round_s = 5.0

    def __init__(self, smoke: bool = False):
        self.argv = ["verify", "--fast"] if smoke else ["verify"]
        if smoke:
            self.round_s = 0.1

    def warmup_argv(self):
        return list(self.argv)

    def rounds(self, seed):
        while True:
            yield [list(self.argv)]

    def check(self, argv, out):
        lines = out.splitlines()
        if not lines:
            return "no output"
        m = re.search(r"(\d+)/(\d+) checks passed", lines[-1])
        failing = [ln.split()[1] for ln in lines[:-1] if not ln.startswith("PASS")]
        if m is None or m.group(1) != m.group(2) or failing:
            return f"failing checks: {', '.join(failing) or lines[-1]}"
        return None


WORKLOADS = {w.name: w for w in (ExactSweep, HeatTrace, ZetaCheck, VerifyFull)}


def make_workload(name: str, smoke: bool = False, refs_dir: Path | None = None) -> Workload:
    cls = WORKLOADS[name]
    if cls is ExactSweep and refs_dir is not None:
        return cls(smoke, refs_dir)
    return cls(smoke)
