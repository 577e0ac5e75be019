"""End-to-end CLI coverage: every documented flag combination and exit code."""

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import sysconfig
import time
import warnings

import mpmath
import pytest

from hyperzeta import cli
from hyperzeta.anomaly import MAX_DIMENSION
from hyperzeta.cli import main
from hyperzeta.plancherel import miatello_coefficients


SCRIPT = "hyperzeta"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
# Where an install puts console scripts for the interpreter running the tests:
# its own scripts directory, and the user scheme's for `pip install --user`.
SCRIPT_DIRS = (
    sysconfig.get_path("scripts"),
    sysconfig.get_path("scripts", f"{os.name}_user"),
)
INSTALLED_SCRIPT = shutil.which(SCRIPT, path=os.pathsep.join(SCRIPT_DIRS))
CAN_INSTALL = (
    (REPO_ROOT / "setup.py").is_file()
    and importlib.util.find_spec("setuptools") is not None
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def script_env():
    """The environment without PYTHONPATH, so a script runs what is installed."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture(scope="module")
def console_script(tmp_path_factory):
    """Absolute path of an installed `hyperzeta` console script.

    This is the script installed for the interpreter running the tests when
    there is one. A checkout run with `PYTHONPATH=src` has none, so the project
    is then installed with `setup.py develop --no-deps` into a throwaway
    virtualenv that shares this interpreter's site-packages. That writes the
    script from `[project.scripts]` as an install does, and needs no network.
    """
    if INSTALLED_SCRIPT:
        return INSTALLED_SCRIPT
    root = tmp_path_factory.mktemp("install")
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy2(REPO_ROOT / name, root / name)
    shutil.copytree(
        REPO_ROOT / "src", root / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    venv = root / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--without-pip", "--system-site-packages",
         str(venv)],
        check=True, capture_output=True,
    )
    bin_dirs = os.pathsep.join(str(venv / d) for d in ("bin", "Scripts"))
    done = subprocess.run(
        [shutil.which("python", path=bin_dirs), "setup.py", "develop", "--no-deps"],
        cwd=root, env=script_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    script = shutil.which(SCRIPT, path=bin_dirs)
    assert script, done.stdout
    return script


def one_geodesic_file(path: pathlib.Path, n: int) -> pathlib.Path:
    """Hand-written manifold file: dimension n, one geodesic with c = 1."""
    doc = {
        "format_version": 1, "dimension": n, "volume": 1.0,
        "betti": [1] + [0] * (n - 1) + [1],
        "geodesics": [{"length": 1.0, "c": 1.0}],
    }
    path.write_text(json.dumps(doc))
    return path


def silenced(path: pathlib.Path) -> pathlib.Path:
    """The file at ``path`` with chi = 0 on every class, written beside it.

    Every amplitude is then 0.0, so the hyperbolic column is an exact 0 at
    heat times where the file's own sum is below the normal floats (and
    heat-trace exits 2 on the file itself)."""
    doc = json.loads(path.read_text())
    for geodesic in doc["geodesics"]:
        geodesic["chi"] = 0.0
    out = path.with_name(f"silenced-{path.name}")
    out.write_text(json.dumps(doc))
    return out


def synth_file(capsys, tmp_path, n: int) -> pathlib.Path:
    """The high-n file of the heat-trace cases: three classes, volume 1."""
    path = tmp_path / f"m{n}.json"
    code, _, _ = run_cli(
        capsys, "synth-spectrum", "--seed", "5", "--count", "3", "--max-power", "1",
        "--min-length", "1", "--dim", str(n), "--out", str(path),
    )
    assert code == 0
    return path


def assert_one_error_line(code, out, err, *needles):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    for needle in needles:
        assert needle in err


@pytest.fixture()
def manifold_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = run_cli(
        capsys,
        "synth-spectrum", "--seed", "11", "--count", "3", "--min-length", "1.0",
        "--max-power", "2", "--dim", "4", "--out", str(path),
    )
    assert code == 0
    return path


class TestAnomaly:
    def test_dim2_default(self, capsys):
        code, out, _ = run_cli(capsys, "anomaly", "--dim", "2", "--form", "0")
        assert code == 0
        assert out.strip() == "-1/12 * pi^-1 = -0.0265258"

    def test_dimension_cap_exit_2(self, capsys):
        over = str(MAX_DIMENSION + 2)
        for argv in (
            ("anomaly", "--dim", over, "--form", str(MAX_DIMENSION // 2)),
            ("table", "--which", "custom", "--dims", "44", over, "--forms", "0"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert f"MAX_DIMENSION={MAX_DIMENSION}" in err
        code, out, _ = run_cli(capsys, "anomaly", "--dim", "44", "--form", "21")
        assert code == 0 and "pi^-22" in out

    def test_conformal_scalar_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "anomaly", "--dim", "6", "--alpha-mode", "conformal-scalar",
            "--form", "0", "--format", "exact",
        )
        assert code == 0
        assert out.strip() == "-5/4032 * pi^-3"

    def test_float_only_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "anomaly", "--dim", "4", "--form", "1", "--format", "float"
        )
        assert code == 0
        assert out.strip() == "-0.0424282"

    def test_massive_mode(self, capsys):
        # alpha = 9/4 + 2 = 17/4 on the 0-form sector
        code, out, _ = run_cli(
            capsys, "anomaly", "--dim", "4", "--form", "0",
            "--alpha-mode", "massive", "--mass-sq", "2", "--format", "exact",
        )
        assert code == 0
        assert out.strip().endswith("* pi^-2")

    def test_massive_rejects_negative(self, capsys):
        code, out, err = run_cli(
            capsys, "anomaly", "--dim", "4", "--form", "0",
            "--alpha-mode", "massive", "--mass-sq", "-1",
        )
        assert_one_error_line(code, out, err, "error: --mass-sq must be nonnegative")

    @pytest.mark.parametrize("mode", [(), ("--alpha-mode", "conformal-scalar")])
    def test_mass_sq_outside_massive_mode_exit_2(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "anomaly", "--dim", "4", "--form", "1", *mode, "--mass-sq", "5"
        )
        assert_one_error_line(code, out, err, "--mass-sq", "--alpha-mode massive")

    def test_massive_mode_defaults_to_zero_mass(self, capsys):
        # at p = 0 a massless shift is the default shift rho0^2
        _, base, _ = run_cli(capsys, "anomaly", "--dim", "4", "--format", "exact")
        code, out, _ = run_cli(
            capsys, "anomaly", "--dim", "4", "--alpha-mode", "massive", "--format", "exact"
        )
        assert code == 0 and out == base

    def test_radius_scaling(self, capsys):
        _, base, _ = run_cli(capsys, "anomaly", "--dim", "2", "--format", "exact")
        code, out, _ = run_cli(
            capsys, "anomaly", "--dim", "2", "--radius", "2", "--format", "exact"
        )
        assert code == 0
        assert out.strip() == "-1/48 * pi^-1"
        assert base.strip() == "-1/12 * pi^-1"

    @pytest.mark.parametrize("radius", ["-3/2", "-1", "0"])
    def test_radius_must_be_positive(self, capsys, radius):
        # R^n is even in R at even n, so a negative R must not pass as |R|
        code, out, err = run_cli(capsys, "anomaly", "--dim", "4", f"--radius={radius}")
        assert_one_error_line(code, out, err, "--radius must be positive", radius)

    @pytest.mark.parametrize("flags,value", [
        pytest.param(
            ("--form", "99", "--radius", "1/1" + "0" * 25), "4.20484e+5163", id="radius"
        ),
        pytest.param(
            ("--alpha-mode", "massive", "--mass-sq", "1/1" + "0" * 40), "8.14476e+105",
            id="mass-sq",
        ),
    ])
    def test_exact_string_past_int_digit_limit_exit_2(self, capsys, flags, value):
        # the exact numerator passes the 4300 digits Python converts to str
        for fmt in ("both", "exact"):
            code, out, err = run_cli(
                capsys, "anomaly", "--dim", "200", *flags, "--format", fmt
            )
            assert_one_error_line(code, out, err, "--radius", "--mass-sq", "--format float")
        code, out, _ = run_cli(capsys, "anomaly", "--dim", "200", *flags, "--format", "float")
        assert code == 0 and out == f"{value}\n"

    def test_middle_degree_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "anomaly", "--dim", "4", "--form", "2")
        assert code == 2
        assert "middle degree" in err

    def test_odd_dimension_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "anomaly", "--dim", "3")
        assert code == 2
        assert "odd dimensions" in err


class TestTable:
    def test_table2_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "table2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # header + 5 dimensions
        assert lines[0].split(",")[0] == "n"
        assert out.count("excluded") == 20  # 10 markers x doubled columns
        assert "-34196177/7096320 * pi^-5" in out

    def test_table1_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "table1")
        assert code == 0
        assert out.count("\n") == 9  # header + rule + 7 rows
        assert "-133787/251596800 * pi^-6" in out

    def test_custom_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--which", "custom", "--dims", "4", "--forms", "0",
            "--format", "plain",
        )
        assert code == 0
        assert "29/240 * pi^-2" in out

    def test_custom_without_lists_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--which", "custom")
        assert code == 2
        assert "--dims" in err

    @pytest.mark.parametrize(
        "which,flag,values",
        [
            ("table1", "--dims", ["4"]),
            ("table2", "--forms", ["9"]),
            ("table2", "--dims", ["4", "6"]),
        ],
    )
    def test_custom_flags_on_fixed_table_exit_2(self, capsys, which, flag, values):
        code, out, err = run_cli(capsys, "table", "--which", which, flag, *values)
        assert_one_error_line(code, out, err, flag, f"only to custom tables, not '{which}'")

    def test_csv_byte_stable_across_processes(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hyperzeta", "table", "--which", "table2",
                 "--format", "csv"],
                capture_output=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0]

    def test_row_at_the_cap_within_budget(self):
        # every cell of the n = 200 row, in a fresh process
        n = MAX_DIMENSION
        argv = ["table", "--which", "custom", "--dims", str(n), "--forms"]
        argv += [str(p) for p in range(n // 2)] + ["--format", "csv"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hyperzeta", *argv], capture_output=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b"\n") == 2  # header and one row
        assert elapsed < 5.0, f"n={n} row took {elapsed:.2f} s"


class TestPlancherel:
    def test_coefficients_listed(self, capsys):
        code, out, _ = run_cli(capsys, "plancherel", "--dim", "6", "--form", "0")
        assert code == 0
        assert "a_0 = 9/16" in out
        assert "a_2 = 5/2" in out
        assert "monic: True" in out

    def test_eval_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "plancherel", "--dim", "2", "--form", "0", "--eval", "1.0"
        )
        assert code == 0
        assert "mu(r=1) = 3.12988" in out

    def test_odd_dim_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "plancherel", "--dim", "5", "--form", "0")
        assert code == 2

    def test_form_out_of_range_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "plancherel", "--dim", "4", "--form", "4")
        assert code == 2
        assert "form order" in err

    @pytest.mark.parametrize("dim", [MAX_DIMENSION + 2, 10000])
    def test_dimension_cap_exits_2_at_once(self, capsys, dim):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "plancherel", "--dim", str(dim), "--form", "0")
        assert time.perf_counter() - start < 1.0
        assert_one_error_line(code, out, err, f"MAX_DIMENSION={MAX_DIMENSION}")

    def test_density_beyond_float_polynomial(self, capsys):
        # P_0(r^2) alone overflows a double here; the density does not
        code, out, err = run_cli(
            capsys, "plancherel", "--dim", "150", "--form", "0", "--eval", "1000"
        )
        assert code == 0, err
        assert "mu(r=1000) = 2.58068e+143" in out

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_eval_named_exit_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "plancherel", "--dim", "6", "--form", "0", "--eval", "1", f"--eval={bad}"
        )
        assert_one_error_line(code, out, err, "error: --eval must be finite")

    def test_density_overflow_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "plancherel", "--dim", "6", "--form", "1", "--eval", "1e100"
        )
        assert_one_error_line(code, out, err, "r=1e+100 ")

    def test_density_outside_float_range_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "plancherel", "--dim", "160", "--form", "0", "--eval", "1.0"
        )
        assert_one_error_line(code, out, err, "n=160 ")


class TestHeatTrace:
    def test_markdown_rows(self, capsys, manifold_file):
        code, out, _ = run_cli(
            capsys, "heat-trace", "--manifold", str(manifold_file),
            "--form", "1", "--t", "0.5", "1.0",
        )
        assert code == 0
        lines = out.splitlines()
        assert "identity" in lines[0] and "betti" in lines[0]
        assert len(lines) == 4

    def test_csv_format(self, capsys, manifold_file):
        code, out, _ = run_cli(
            capsys, "heat-trace", "--manifold", str(manifold_file),
            "--form", "0", "--t", "1.0", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,identity,hyperbolic,betti,total"

    def test_nonpositive_t_exit_2(self, capsys, manifold_file):
        code, _, _ = run_cli(
            capsys, "heat-trace", "--manifold", str(manifold_file),
            "--form", "0", "--t", "-1.0",
        )
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_t_exit_2(self, capsys, manifold_file, bad):
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(manifold_file),
            "--form", "0", "--t", bad,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --t ")

    def test_bad_t_after_good_computes_nothing(self, capsys, manifold_file, monkeypatch):
        from hyperzeta import heat_zeta
        from hyperzeta._kernels import fallback

        calls = []
        monkeypatch.setattr(
            heat_zeta, "identity_heat_term", lambda *a: calls.append(a) or 1.0
        )
        # the engine every quadrature of the package runs on
        monkeypatch.setattr(fallback, "de_integrate", lambda *a: calls.append(a))
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(manifold_file),
            "--form", "0", "--t", "1.0", "0.5", "0",
        )
        assert code == 2
        assert calls == []
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --t ")

    def test_identity_term_near_the_float_maximum(self, capsys, tmp_path, monkeypatch):
        # at n = 2 the identity term is e^(-t/4) / 2 times the integral of
        # r tanh(pi r) e^(-t r^2), which is 1/(2t) - 1/24 + O(t).  At
        # t = 1e-307 the integrand's peak sits where r^2 nears the float
        # range; the kernel once dropped the nodes whose r^2 overflows, and
        # the command exited 2 with "did not converge".  The geodesic's own
        # term, e^(-1/(4t)), is below the normal floats, so the file's class
        # is silenced to read the identity column
        path = one_geodesic_file(tmp_path / "m.json", 2)
        monkeypatch.setenv("HYPERZETA_PRECISION", "17")
        argv = ("--form", "0", "--t", "1e-307", "--format", "csv")
        code, out, err = run_cli(capsys, "heat-trace", "--manifold", str(path), *argv)
        assert_one_error_line(code, out, err, "hyperbolic at t=1e-307 is outside the float range")
        code, out, err = run_cli(capsys, "heat-trace", "--manifold", str(silenced(path)), *argv)
        assert (code, err) == (0, "")
        identity = float(out.splitlines()[1].split(",")[1])
        want = 0.25 / 1e-307 - 1.0 / 48.0
        assert abs(identity - want) <= 1e-13 * want

    def test_quadrature_failure_exit_2(self, capsys, tmp_path, monkeypatch):
        from hyperzeta._kernels import fallback

        integrals = fallback.plancherel_integrals

        def unsure(coeffs):
            # the kernel's result at each t, reported as not converged
            integral = integrals(coeffs)

            def at(t):
                mantissa, delta, level, _, scale = integral(t)
                return mantissa, delta, level, False, scale

            return at

        monkeypatch.setattr(fallback, "plancherel_integrals", unsure)
        path = one_geodesic_file(tmp_path / "m.json", 2)
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(path), "--form", "0", "--t", "0.5",
        )
        assert_one_error_line(code, out, err, "did not converge")

    def test_identity_term_of_an_overflowing_integral(self, capsys, tmp_path, monkeypatch):
        # at n = 6, t = 1e-100 the integral is about 1e300 and the term
        # 4.9e296: it printed "identity inf" with exit 0 while inf counted as
        # converged, then exited 2 with "did not converge".  With tanh(pi r)
        # = 1 the integral is the sum of a_j j! / (2 t^(j+1)); the rest is
        # below 1e-290 of it
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "synth-spectrum", "--seed", "11", "--count", "3", "--dim", "6",
            "--out", str(path),
        )
        assert code == 0
        monkeypatch.setenv("HYPERZETA_PRECISION", "17")
        argv = ("--form", "0", "--t", "1e-100", "--format", "csv")
        # the geodesic sum is below the normal floats: the file exits 2, and
        # its silenced copy prints the identity column
        code, out, err = run_cli(capsys, "heat-trace", "--manifold", str(path), *argv)
        assert_one_error_line(code, out, err, "hyperbolic at t=1e-100 is outside the float range")
        code, out, err = run_cli(capsys, "heat-trace", "--manifold", str(silenced(path)), *argv)
        assert (code, err) == (0, "")
        identity = float(out.splitlines()[1].split(",")[1])
        with mpmath.workdps(40):
            t = mpmath.mpf(1e-100)
            a = [mpmath.mpf(c.numerator) / c.denominator for c in miatello_coefficients(3, 0)]
            integral = sum(c * mpmath.factorial(j) / (2 * t ** (j + 1)) for j, c in enumerate(a))
            # Vol/(4 pi) pi/(2^8 Gamma(3)^2) C(5, 0) 2 e^(-t 25/4), Vol = 1
            want = integral / (4 * 2**8 * 4) * 2 * mpmath.exp(-t * 25 / 4)
            assert abs(identity - want) <= 1e-12 * want

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "heat-trace", "--manifold", str(tmp_path / "nope.json"),
            "--form", "0", "--t", "1.0",
        )
        assert code == 2

    def test_bad_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "dimension": 3}')
        code, _, err = run_cli(
            capsys, "heat-trace", "--manifold", str(bad), "--form", "0", "--t", "1.0"
        )
        assert code == 2
        assert "manifold" in err

    def test_dimension_over_cap_is_a_bad_file(self, capsys, tmp_path):
        path = one_geodesic_file(tmp_path / "m.json", MAX_DIMENSION + 2)
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(path), "--form", "0", "--t", "1.0"
        )
        assert_one_error_line(
            code, out, err, "bad manifold file", f"MAX_DIMENSION={MAX_DIMENSION}"
        )

    @pytest.mark.parametrize("n,t", [(98, "1"), (100, "1"), (4, "1e-300"), (100, "0.3")])
    def test_identity_outside_float_range_exit_2(self, capsys, tmp_path, n, t):
        # values near 1e-1081, 1e-1124, 1/t^2 and 1e-376.5: the first three
        # exited 2 with "did not converge", the last printed 0
        path = synth_file(capsys, tmp_path, n)
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(path), "--form", "0", "--t", t
        )
        needle = f"identity at t={float(t)!r} is outside the float range"
        assert_one_error_line(code, out, err, needle)

    @pytest.mark.parametrize("n", [100, 140, 160])
    def test_hyperbolic_below_normal_floats_exit_2(self, capsys, tmp_path, n):
        # the hyperbolic column printed the subnormal 7.90505e-322 (0.49% off
        # 7.94396e-322) at n = 100, and 0 at n = 140 and 160, beside the
        # identity 1.04543e-172 and 1.11834e-216 that TestHighDimension pins
        path = synth_file(capsys, tmp_path, n)
        code, out, err = run_cli(
            capsys, "heat-trace", "--manifold", str(path), "--form", "0", "--t", "0.05"
        )
        assert_one_error_line(code, out, err, "hyperbolic at t=0.05 is outside the float range")


@pytest.mark.parametrize("command", [
    ("heat-trace", "--form", "1", "--t", "1.0"),
    ("zeta-check", "--form", "1"),
])
def test_wrong_holonomy_length_is_a_bad_file(capsys, tmp_path, monkeypatch, command):
    from hyperzeta._kernels import fallback

    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a rejected file")

    # the engine every quadrature of the package runs on
    monkeypatch.setattr(fallback, "de_integrate", no_quadrature)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "format_version": 1, "dimension": 4, "volume": 1.0, "betti": [1, 0, 0, 0, 1],
        "geodesics": [{"length": 1.0, "c": 1.0, "holonomy": [1.0, 3.0]}],
    }))
    subcommand, *rest = command
    code, out, err = run_cli(capsys, subcommand, "--manifold", str(path), *rest)
    assert_one_error_line(code, out, err, "bad manifold file", "geodesics[0].holonomy")


@pytest.mark.parametrize("command", [
    ("heat-trace", "--form", "1", "--t", "1.0"),
    ("zeta-check", "--form", "1"),
])
@pytest.mark.parametrize("radius,code", [(2.0, 2), (0.5, 2), (1.0, 0)])
def test_numeric_commands_need_unit_radius(capsys, tmp_path, monkeypatch, command, radius, code):
    # the numerics work at R = 1; a radius of 2 printed the same bytes as 1
    from hyperzeta._kernels import fallback

    integrate = fallback.de_integrate

    def unit_only(*args):
        assert radius == 1.0, "quadrature ran on a rejected file"
        return integrate(*args)

    monkeypatch.setattr(fallback, "de_integrate", unit_only)
    path = one_geodesic_file(tmp_path / "m.json", 4)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), radius=radius)))
    subcommand, *rest = command
    got, out, err = run_cli(capsys, subcommand, "--manifold", str(path), *rest)
    if code:
        assert_one_error_line(got, out, err, "radius must be 1", f"got {radius!r}")
    else:
        assert got == 0 and err == ""


@pytest.mark.parametrize("field,value,needle", [
    ("c", "NaN", "c must be a finite number (field geodesics[0])"),
    ("chi", "Infinity", "chi must be a finite number (field geodesics[0])"),
    ("holonomy", "[1.0, NaN, 3.0, 1.0]", "holonomy character values must be finite"),
    ("chi_one", "NaN", "chi_one must be a finite number"),
    ("radius", "NaN", "radius must be a finite number"),
    ("power", "true", "power must be a positive integer"),
    ("chi", "true", "chi must be a number, not true (field geodesics[0])"),
    ("radius", "false", "radius must be a number, not false"),
    ("holonomy", '["a", 1, 1, 1]', "(field geodesics[0].holonomy)"),
])
def test_nonfinite_weight_is_a_bad_file(capsys, tmp_path, field, value, needle):
    # each of these loaded before and printed nan (or used power 1, or a
    # boolean as 1.0) with exit 0; a non-numeric character failed without
    # naming the file or the field
    entry = f'"length": 1.0, "c": 1.0, "{field}": {value}'
    top = ""
    if field in ("chi_one", "radius"):
        entry, top = '"length": 1.0, "c": 1.0', f', "{field}": {value}'
    path = tmp_path / "m.json"
    path.write_text(
        '{"format_version": 1, "dimension": 4, "volume": 1.0, "betti": [1, 0, 0, 0, 1], '
        f'"geodesics": [{{{entry}}}]{top}}}'
    )
    code, out, err = run_cli(
        capsys, "heat-trace", "--manifold", str(path), "--form", "1", "--t", "0.5"
    )
    assert_one_error_line(code, out, err, "bad manifold file", needle)


@pytest.mark.parametrize("command", [
    ("heat-trace", "--form", "0", "--t", "1.0"),
    ("zeta-check", "--form", "0"),
])
def test_deeply_nested_file_is_a_bad_file(capsys, tmp_path, command):
    # json.loads raised RecursionError, which ended in a traceback with exit 1
    path = tmp_path / "m.json"
    path.write_text(
        '{"format_version": 1, "dimension": 2, "volume": 1.0, "betti": [1, 0, 1], '
        '"geodesics": ' + "[" * 100_000 + "]" * 100_000 + "}"
    )
    code, out, err = run_cli(capsys, command[0], "--manifold", str(path), *command[1:])
    assert_one_error_line(code, out, err, "bad manifold file: not valid JSON: ")


# a JSON integer past the float range, and one past Python's 4300-digit
# limit for converting a string to an int
BIG = "1" + "0" * 400
HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("command", [
    ("heat-trace", "--form", "0", "--t", "1.0"),
    ("zeta-check", "--form", "0"),
])
@pytest.mark.parametrize("old,new,needle", [
    ('"volume": 1.0', f'"volume": {BIG}', "int too large to convert to float (field volume)"),
    ('"length": 1.0', f'"length": {BIG}',
     "int too large to convert to float (field geodesics[0])"),
    ('"c": 1.0', f'"c": 1.0, "holonomy": [1, {BIG}, 3, 1]',
     "int too large to convert to float (field geodesics[0].holonomy)"),
    ('"volume": 1.0', f'"volume": {HUGE}', "not valid JSON: Exceeds the limit (4300 digits)"),
    ('"c": 1.0', f'"c": 1.0, "power": {BIG}',
     "int too large to convert to float (field geodesics[0])"),
    ('"betti": [1, ', f'"betti": [{BIG}, ',
     "betti entry too large to convert to float (field betti)"),
    ('"betti": [1, 0, ', f'"betti": [1, {BIG}, ',
     "betti entry too large to convert to float (field betti)"),
], ids=["volume", "length", "holonomy", "5000-digit", "power", "betti0", "betti1"])
def test_huge_integer_is_a_bad_file(capsys, tmp_path, command, old, new, needle):
    # 400 digits ended in an OverflowError traceback with exit 1; 5000
    # digits exited 2 with json's message alone, not naming the file as bad
    path = one_geodesic_file(tmp_path / "m.json", 4)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, command[0], "--manifold", str(path), *command[1:])
    assert_one_error_line(code, out, err, "bad manifold file: ", needle)


@pytest.mark.parametrize("command,n,length", [
    (("heat-trace", "--form", "0", "--t", "1.0"), 4, 1e-17),
    (("zeta-check", "--form", "0"), 4, 1e-17),
    # zeta-check stops at n = 100 before the geodesics (ROADMAP item 3)
    (("heat-trace", "--form", "0", "--t", "1.0"), 100, 1e-4),
], ids=["heat-trace-n4", "zeta-check-n4", "heat-trace-n100"])
def test_trivial_weight_past_float_range_exit_2(capsys, tmp_path, command, n, length):
    # a class with no c takes C from the closed form, whose 1 - e^-t rounded
    # to 0 (ZeroDivisionError) or whose power overflowed: exit 1, traceback
    path = one_geodesic_file(tmp_path / "m.json", n)
    doc = json.loads(path.read_text())
    doc["geodesics"].append({"length": length})
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], "--manifold", str(path), *command[1:])
    assert_one_error_line(code, out, err, f"geodesic length {length:g} is too short at n={n}")


@pytest.mark.parametrize("command,chi_one,entry,needle", [
    (("heat-trace", "--t", "0.5", "1.0"), -1e308, {},
     "heat trace identity at t=0.5 is outside the float range"),
    (("heat-trace", "--t", "0.5", "1.0"), 1.0, {"chi": 1e308},
     "heat trace hyperbolic at t=0.5 is outside the float range"),
    (("zeta-check",), -1e308, {},
     "identity zeta value at s=0 is outside the float range"),
], ids=["heat-identity", "heat-hyperbolic", "zeta-identity"])
def test_value_outside_float_range_exit_2(capsys, tmp_path, command, chi_one, entry, needle):
    # each printed inf (or -inf) in a table with exit 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "format_version": 1, "dimension": 2, "volume": 10.0, "chi_one": chi_one,
        "betti": [1, 0, 1], "geodesics": [dict({"length": 1.5, "c": 10.0}, **entry)],
    }))
    code, out, err = run_cli(
        capsys, command[0], "--manifold", str(path), "--form", "0", *command[1:]
    )
    assert_one_error_line(code, out, err, needle)


class TestZetaCheck:
    def test_default_passes(self, capsys, manifold_file):
        code, out, _ = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file), "--form", "0"
        )
        assert code == 0
        assert out.count("[ok]") == 3
        assert "scaling ratio" in out

    def test_impossible_tolerance_fails(self, capsys, manifold_file):
        code, out, _ = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file),
            "--form", "0", "--s", "0.5", "--tolerance", "1e-18",
        )
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_s_exit_2(self, capsys, manifold_file, bad):
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file),
            "--form", "0", "--s", "0.5", bad,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --s ")

    @pytest.mark.parametrize("bad", ["1000", "1000.3", "1e5", "1e6", "65.6", "-64.6"])
    def test_s_beyond_bessel_order_bound_exit_2(self, capsys, manifold_file, bad):
        # 1000 and 1000.3 ended in an OverflowError traceback with exit 1, and
        # 1e6 ran for minutes; the bound is |1/2 - s| <= 65
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file),
            "--form", "0", "--s", "0.5", bad,
        )
        assert time.perf_counter() - start < 1.0
        assert_one_error_line(code, out, err, "error: --s ", f"got {float(bad)!r}")

    @pytest.mark.parametrize("s", ["20", "-20", "65.5", "-64.5"])
    def test_s_inside_bessel_order_bound_passes(self, capsys, manifold_file, s):
        code, out, _ = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file), "--form", "0", "--s", s
        )
        assert code == 0
        assert out.count("[ok]") == 1

    def test_s_line_same_alone_or_in_a_list(self, capsys, monkeypatch, manifold_file):
        monkeypatch.setenv("HYPERZETA_PRECISION", "17")
        lines = {}
        for s_values in (["0.5"], ["0.7", "0.5", "0.3"], ["0.3", "0.5", "0.5"]):
            code, out, _ = run_cli(
                capsys, "zeta-check", "--manifold", str(manifold_file), "--form", "1",
                "--s", *s_values,
            )
            assert code == 0
            lines[tuple(s_values)] = [ln for ln in out.splitlines() if ln.startswith("s=0.5:")]
        assert list(lines.values()) == [lines[("0.5",)]] * 2 + [lines[("0.5",)] * 2]

    @pytest.mark.parametrize("bad", ["-40", "-64"])
    def test_mellin_value_outside_float_range_exit_2(self, capsys, tmp_path, bad):
        # one geodesic of length 0.001: -40 ended in an OverflowError
        # traceback from the time-route node, with exit 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format_version": 1, "dimension": 4, "volume": 1.0, "betti": [1, 0, 0, 0, 1],
            "geodesics": [{"length": 0.001, "c": 1.0}],
        }))
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(path), "--form", "0", "--s", "0.3", bad
        )
        assert_one_error_line(code, out, err, f"s={float(bad)!r}", "outside the float range")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_2(self, capsys, manifold_file, bad):
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(manifold_file),
            "--form", "0", "--s", "0.5", "--tolerance", bad,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --tolerance ")

    @pytest.mark.parametrize("n", [160, 200])
    def test_normalisation_outside_float_range_exit_2(self, capsys, tmp_path, n):
        path = one_geodesic_file(tmp_path / "m.json", n)
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(path), "--form", "0"
        )
        assert_one_error_line(code, out, err, f"n={n} ")

    def test_bessel_argument_overflow_exit_2(self, tmp_path):
        # length * sqrt(alpha) overflows to inf; an unchecked Bessel node
        # loop never ends on it, so the child runs with a timeout and a
        # memory cap
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format_version": 1, "dimension": 4, "volume": 1.0, "betti": [1, 0, 0, 0, 1],
            "geodesics": [{"length": 1.5e308, "c": 1.0}],
        }))

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "hyperzeta", "zeta-check", "--manifold", str(path),
             "--form", "0"],
            capture_output=True, text=True, timeout=20, preexec_fn=cap_memory,
        )
        assert_one_error_line(
            proc.returncode, proc.stdout, proc.stderr, "z must be positive and finite"
        )

    def test_half_integer_order_at_large_z_no_traceback(self, capsys, tmp_path):
        # order 64.5 at z = 4.5e6 in the first block, before any cut check:
        # the closed form's (2z)^i overflowed with an OverflowError traceback
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "synth-spectrum", "--seed", "3", "--count", "30", "--min-length", "1.0",
            "--dim", "4", "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        doc["geodesics"].append({"length": 3e6, "c": 1.0})
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "zeta-check", "--manifold", str(path), "--form", "0", "--s", "-64"
        )
        if code == 2:
            assert_one_error_line(code, out, err)
        else:
            assert code == 0 and err == ""
            assert out.startswith("s=-64: bessel=")


@pytest.mark.parametrize("command,flag", [
    (("heat-trace", "--t", "1", "-1"), "--t"),
    (("heat-trace", "--t", "nan"), "--t"),
    (("zeta-check", "--s", "0.5", "nan"), "--s"),
])
def test_bad_flag_reported_before_missing_file(capsys, tmp_path, command, flag):
    name, *flags = command
    code, out, err = run_cli(capsys, name, "--manifold", str(tmp_path / "none.json"), *flags)
    assert_one_error_line(code, out, err, f"error: {flag} must be ")


@pytest.mark.parametrize("command", [("heat-trace", "--t", "1"), ("zeta-check",)])
def test_bad_file_field_names_no_flag(capsys, tmp_path, command):
    # "volume" is a parameter with a flag, but a file's volume is no flag
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"format_version": 1, "dimension": 4, "volume": 0, "betti": [1, 0, 0, 0, 1]}
    ))
    name, *flags = command
    code, out, err = run_cli(capsys, name, "--manifold", str(path), *flags)
    assert_one_error_line(code, out, err)
    assert err == "error: bad manifold file: volume must be positive\n"


def test_every_flag_of_the_table_is_an_option():
    options = {
        option
        for action in cli.build_parser()._subparsers._group_actions
        for command in action.choices.values()
        for option in command._option_string_actions
    }
    assert set(cli._FLAGS.values()) <= options


def test_two_calls_build_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "table", "--which", "table2")[0] == 0
    assert len(built) == 8  # the top-level parser and one per command
    assert run_cli(capsys, "anomaly", "--dim", "4")[0] == 0
    assert len(built) == 8


def _fresh_output(capsys, argv):
    cli.build_parser.cache_clear()
    return run_cli(capsys, *argv)


@pytest.mark.parametrize("first,second", [
    (("plancherel", "--dim", "6", "--form", "1", "--eval", "0.5"),
     ("plancherel", "--dim", "6", "--form", "1")),
    (("table", "--which", "table2", "--format", "csv"), ("table", "--which", "table2")),
])
def test_calls_in_one_process_share_no_state(capsys, first, second):
    # each call prints what the first call of a fresh parser prints
    expected = [_fresh_output(capsys, first), _fresh_output(capsys, second)]
    cli.build_parser.cache_clear()
    got = [run_cli(capsys, *first), run_cli(capsys, *second)]
    assert got == expected
    code, out, err = got[1]
    assert code == 0 and err == ""
    if second[0] == "table":
        assert out.startswith("| ")  # markdown, the default, not the csv before it
    else:
        assert "mu(" in got[0][1] and "mu(" not in out


@pytest.mark.parametrize("command", [("heat-trace", "--t", "0.5", "1"), ("zeta-check",)])
def test_empty_spectrum_warns_in_one_line(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    code, _, _ = run_cli(
        capsys, "synth-spectrum", "--seed", "1", "--count", "0", "--dim", "4",
        "--out", str(path),
    )
    assert code == 0
    name, *flags = command
    code, out, err = run_cli(capsys, name, "--manifold", str(path), *flags)
    assert code == 0
    assert err == "warning: geodesic sum over empty spectrum is 0\n"
    # the warning filters still apply, and stdout is the same either way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, name, "--manifold", str(path), *flags) == (0, out, "")


class TestSynthSpectrum:
    def test_stdout_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth-spectrum", "--seed", "7", "--count", "2",
            "--max-power", "3", "--dim", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["dimension"] == 2
        assert len(doc["geodesics"]) == 6

    @pytest.mark.parametrize("flags,digest", [
        (("--seed", "7", "--count", "2", "--dim", "2"),
         "0f856800c6dbbd737622da0c7c291e165f0ab28775a55c6f3d6a9e237cdf31a4"),
        # the two bench spectra's sizes: 6000 classes at n = 6, 1500 at n = 4
        (("--seed", "11", "--count", "2000", "--dim", "6"),
         "ad9f689f37120322882aca5b5e69d54ba481e7d62ec4c207d1dd73836b4e7044"),
        (("--seed", "11", "--count", "500", "--dim", "4"),
         "02f4bb3163b4682af9ac1ecaff5d03aad6697379ec4ce6fa48abd865001b64cb"),
    ], ids=["small", "heat-bench", "zeta-bench"])
    def test_same_json_value_as_the_indented_writer(self, capsys, flags, digest):
        # each digest is of the file that json.dumps(indent=2) wrote before
        # the writer went one class a line: only the whitespace moved
        code, out, _ = run_cli(capsys, "synth-spectrum", *flags, "--max-power", "3")
        assert code == 0
        indented = json.dumps(json.loads(out), indent=2) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == digest

    def test_stdout_equals_out_file(self, capsys, tmp_path):
        args = ("synth-spectrum", "--seed", "5", "--count", "3000", "--max-power", "2",
                "--dim", "4")
        path = tmp_path / "m.json"
        _, out, _ = run_cli(capsys, *args)
        assert run_cli(capsys, *args, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_one_geodesic_per_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth-spectrum", "--seed", "2", "--count", "3", "--max-power", "2",
            "--dim", "4",
        )
        assert code == 0
        doc = json.loads(out)
        lines = [line for line in out.splitlines() if line.startswith("    {")]
        assert [json.loads(line.rstrip(",")) for line in lines] == doc["geodesics"]
        assert len(doc["geodesics"]) == 6

    def test_betti_past_float_range_names_flag(self, capsys, tmp_path):
        # ended in "error: int too large to convert to float (field betti)"
        path = tmp_path / "m.json"
        code, out, err = run_cli(
            capsys, "synth-spectrum", "--seed", "1", "--count", "1", "--dim", "2",
            "--betti", "1", "0", BIG, "--out", str(path),
        )
        assert_one_error_line(code, out, err, "error: --betti entry too large")
        assert not path.exists()

    def test_deterministic_output(self, capsys):
        args = ("synth-spectrum", "--seed", "3", "--count", "2", "--dim", "4")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b

    def test_betti_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth-spectrum", "--seed", "1", "--count", "0", "--dim", "2",
            "--betti", "1", "2", "1",
        )
        assert code == 0
        assert json.loads(out)["betti"] == [1, 2, 1]

    def test_wrong_betti_length_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "synth-spectrum", "--seed", "1", "--count", "0", "--dim", "2",
            "--betti", "1", "2",
        )
        assert code == 2

    def test_dimension_cap_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "synth-spectrum", "--seed", "1", "--count", "1",
            "--dim", str(MAX_DIMENSION + 2),
        )
        assert_one_error_line(code, out, err, f"MAX_DIMENSION={MAX_DIMENSION}")

    @pytest.mark.parametrize("flags", [
        ("--count", "20", "--dim", "100", "--min-length", "1", "--max-power", "3"),
        ("--count", "1", "--dim", "200", "--min-length", "8"),
        ("--count", "5", "--dim", "4", "--min-length", "1e308"),
    ])
    def test_weight_below_float_range_exit_2(self, capsys, tmp_path, flags):
        # C = e^(-rho0 t)(1 - e^-t)^(1-n) underflows to 0.0 once rho0 t passes ~745
        path = tmp_path / "m.json"
        code, out, err = run_cli(
            capsys, "synth-spectrum", "--seed", "1", *flags, "--out", str(path)
        )
        assert_one_error_line(code, out, err, "--min-length", "--max-power", "float range")
        assert not path.exists()

    @pytest.mark.parametrize("flags,flag", [
        (("--count", "-1"), "--count"),
        (("--count", "3", "--max-power", "0"), "--max-power"),
        (("--count", "3", "--min-length", "nan"), "--min-length"),
        (("--count", "3", "--min-length", "-1"), "--min-length"),
        (("--count", "3", "--min-length", "0"), "--min-length"),
        (("--count", "3", "--min-length", "inf"), "--min-length"),
        (("--count", "3", "--volume", "nan"), "--volume"),
        (("--count", "3", "--volume", "inf"), "--volume"),
        (("--count", "3", "--volume", "0"), "--volume"),
        (("--count", "3", "--betti", "1", "0"), "--betti"),
        (("--count", "3", "--betti", "1", "0", "-1", "0", "1"), "--betti"),
        (("--count", "3", "--dim", "5"), "--dim"),
    ])
    def test_bad_flag_named_exit_2(self, capsys, tmp_path, monkeypatch, flags, flag):
        # these failed inside the library, in words that named no flag;
        # each flag's rule runs before a class is drawn
        from hyperzeta import manifold

        def drawn(*args):
            raise AssertionError("a class was drawn before the flags were checked")

        monkeypatch.setattr(manifold, "_trivial_weights", drawn)
        path = tmp_path / "m.json"
        dim = () if "--dim" in flags else ("--dim", "4")
        code, out, err = run_cli(
            capsys, "synth-spectrum", "--seed", "1", *dim, *flags, "--out", str(path)
        )
        assert_one_error_line(code, out, err, flag)
        assert not path.exists()

    @pytest.mark.parametrize("flags", [
        ("--count", "100000000"),
        ("--count", "1", "--max-power", "1000000000"),
    ])
    def test_oversized_spectrum_refused_before_drawing(self, tmp_path, flags):
        # the lists of such a spectrum would take tens of GB; the child runs
        # under a memory cap, so drawing before the check fails fast with a
        # MemoryError instead of using up the machine
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hyperzeta", "synth-spectrum", "--seed", "1", "--dim", "4",
             *flags, "--out", str(path)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert_one_error_line(
            proc.returncode, proc.stdout, proc.stderr,
            "error: --count ", " --max-power ", "MAX_SYNTH_CLASSES=1000000",
        )
        assert not path.exists()


@pytest.mark.parametrize("argv,start", [
    (("anomaly", "--dim", "3"), "error: --dim 3: odd dimensions out of scope"),
    (("anomaly", "--dim", str(MAX_DIMENSION + 2)),
     f"error: --dim {MAX_DIMENSION + 2}: dimension n={MAX_DIMENSION + 2} exceeds"),
    (("anomaly", "--dim", "4", "--form", "2"), "error: --form 2: form order must satisfy"),
    (("anomaly", "--dim", "4", "--form", "-1", "--alpha-mode", "conformal-scalar"),
     "error: --form -1: form order must satisfy"),
    (("plancherel", "--dim", "3", "--form", "0"), "error: --dim 3: odd dimensions out of scope"),
    (("plancherel", "--dim", "4", "--form", "4"), "error: --form 4: form order p=4 outside"),
    (("table", "--which", "custom", "--dims", "44", "3", "--forms", "0"),
     "error: --dims 3: odd dimensions out of scope"),
    (("table", "--which", "custom", "--dims", "4", "0", "--forms", "0"),
     "error: --dims 0: dimension must be an even integer"),
    (("synth-spectrum", "--seed", "1", "--count", "1", "--dim", "3"),
     "error: --dim 3: odd dimensions out of scope"),
])
def test_dimension_and_form_rejections_name_the_flag(capsys, argv, start):
    # check_dimension serves --dim and --dims alike, so its message names
    # neither; each command names the flag and the value it was given
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err.startswith(start)


@pytest.mark.parametrize("command", [("heat-trace", "--t", "1.0"), ("zeta-check",)])
@pytest.mark.parametrize("p", ["9", "-1", "4"])
def test_numeric_form_rejection_names_the_flag(capsys, tmp_path, command, p):
    # the file gives n = 4, so the form orders are 0..3
    path = one_geodesic_file(tmp_path / "m.json", 4)
    subcommand, *rest = command
    code, out, err = run_cli(capsys, subcommand, "--manifold", str(path), "--form", p, *rest)
    assert_one_error_line(code, out, err)
    assert err == f"error: --form {p}: form order p={p} outside 0..3\n"


class TestVerify:
    def test_fast_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fast")
        assert code == 0
        assert "golden-table2" in out
        assert "FAIL" not in out

    def test_full_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        *checks, summary = out.splitlines()
        assert code == 0
        assert len(checks) == 7 and all(line.startswith("PASS ") for line in checks)
        assert summary.endswith("7/7 checks passed")

    def test_corrupted_golden_named_failure(self, capsys, tmp_path):
        bad = tmp_path / "golden.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "verify", "--fast", "--golden", str(bad))
        assert code == 1
        assert "FAIL" in out and "golden-load" in out

    def test_deeply_nested_golden_named_failure(self, capsys, tmp_path):
        # json.loads raised RecursionError, which ended in a traceback with exit 1
        bad = tmp_path / "golden.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, out, _ = run_cli(capsys, "verify", "--fast", "--golden", str(bad))
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "golden-load" in failed[0]
        assert "golden file is not valid JSON: " in failed[0]

    def test_integer_past_digit_limit_golden_named_failure(self, capsys, tmp_path):
        # json.loads' ValueError made verify exit 2 with one error line
        from importlib import resources

        text = resources.files("hyperzeta").joinpath("data/golden_tables.json").read_text()
        bad = tmp_path / "golden.json"
        bad.write_text(text.replace('"n": 2', '"n": 1' + "0" * 5000, 1))
        code, out, _ = run_cli(capsys, "verify", "--fast", "--golden", str(bad))
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].split()[1] == "golden-load"
        assert "golden file is not valid JSON: Exceeds the limit (4300 digits)" in failed[0]

    @pytest.mark.parametrize("key,index,field,value,needle", [
        ("table2", 3, "exact", "1/0 * pi^-1", "table2[3]: zero denominator: '1/0 * pi^-1'"),
        ("table1", 2, "exact", None, "table1[2] has no 'exact'"),
        ("table2", 4, None, 7, "table2[4] is not an object"),
        ("table1", 0, "n", 2.5, "table1[0]: n=2.5 and p=0 must be integers"),
        ("table2", 1, "p", "0", "table2[1]: n=4 and p='0' must be integers"),
        ("table2", 1, "p", 2, "table2[1]: form order must satisfy"),
        ("table1", 1, "n", 3, "table1[1]: odd dimensions"),
        ("table1", 6, "published_float", "abc", "table1[6]: could not convert string to float"),
        ("table2", 0, "published_float", "nan", "table2[0]: published_float nan is not finite"),
        # ended in an OverflowError traceback
        ("table1", 3, "published_float", 10**400, "table1[3]: int too large to convert to float"),
    ])
    def test_malformed_golden_row_named_failure(
        self, capsys, tmp_path, key, index, field, value, needle
    ):
        # one named golden-load failure (exit 1), not a traceback or a usage error
        from importlib import resources

        blob = json.loads(
            resources.files("hyperzeta").joinpath("data/golden_tables.json").read_text()
        )
        if field is None:
            blob[key][index] = value
        elif value is None:
            del blob[key][index][field]
        else:
            blob[key][index][field] = value
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "verify", "--fast", "--golden", str(bad))
        assert code == 1
        (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert line.split()[1] == "golden-load" and needle in line

    def test_tampered_value_named_failure(self, capsys, tmp_path):
        from importlib import resources

        blob = json.loads(
            resources.files("hyperzeta").joinpath("data/golden_tables.json").read_text()
        )
        blob["table2"][3]["exact"] = "1/2 * pi^-2"
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "verify", "--fast", "--golden", str(bad))
        assert code == 1
        assert "golden-table2" in out and "FAIL" in out


class TestEnvAndParser:
    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERZETA_PRECISION", "9")
        code, out, _ = run_cli(capsys, "anomaly", "--dim", "2", "--format", "float")
        assert code == 0
        assert out.strip() == "-0.0265258238"

    def test_bad_precision_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERZETA_PRECISION", "zero")
        code, _, err = run_cli(capsys, "anomaly", "--dim", "2")
        assert code == 2
        assert "HYPERZETA_PRECISION" in err

    def test_precision_error_comes_before_a_missing_flag(self, capsys, monkeypatch):
        # main reads the precision before it parses the flags
        monkeypatch.setenv("HYPERZETA_PRECISION", "0")
        code, out, err = run_cli(capsys, "anomaly")
        assert (code, out) == (2, "")
        assert err == "error: HYPERZETA_PRECISION must be between 1 and 50\n"

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unexpected_error_is_a_traceback(self, capsys, monkeypatch):
        # only bad input exits 2; a bug in a command stays a traceback
        def broken(args, digits):
            raise KeyError("not a usage error")

        monkeypatch.setattr(cli, "cmd_anomaly", broken)
        with pytest.raises(KeyError, match="not a usage error"):
            main(["anomaly", "--dim", "2"])
        assert capsys.readouterr().err == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "hyperzeta" in out

    @pytest.mark.skipif(
        INSTALLED_SCRIPT is None and not CAN_INSTALL,
        reason=f"no {SCRIPT!r} console script in {', '.join(SCRIPT_DIRS)}, "
        "and no setup.py and setuptools to install one",
    )
    def test_installed_entry_point(self, console_script, tmp_path):
        out = subprocess.run(
            [console_script, "anomaly", "--dim", "2"],
            cwd=tmp_path, env=script_env(), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "-1/12 * pi^-1 = -0.0265258"
