"""Benchmark of the hyperzeta CLI: end-to-end metrics, or a traced per-layer run.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each op calls ``hyperzeta.cli.main(argv)`` in this process with stdout
captured, in a closed loop (one client, no extra threads).  Outputs are
checked after the timed loop.  Times are scaled to a reference machine
speed (speed.py); raw wall times are printed beside them.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  perfbench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import backends  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import OVERHEAD_METRIC, SPANS, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_REPEATS = 3
END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# the layer ROADMAP's baseline says dominates each workload, with its share
BASELINE_SHAPE = {
    "exact-sweep": ("plancherel.EvenPolynomial.__mul__", 0.91),
    "heat-trace": ("heat_zeta._geodesic_amplitudes", 0.85),
    "zeta-check": ("kernels.bessel_k_integral", 0.80),
    "verify-full": ("verify.mpmath_quad", 0.99),
}
SELF_TIME_TOLERANCE = 0.02  # share of op wall time not covered by spans


@dataclass
class Op:
    argv: list
    rc: int | None
    out: str
    err: str
    error: str | None
    wall: float
    probe_s: float = 0.0  # speed probes that ran inside the op
    speed: float = 1.0  # machine speed during the op, relative to the reference
    traced_self: float = 0.0
    failure: str | None = None

    @property
    def net(self) -> float:
        return self.wall - self.probe_s

    @property
    def adjusted(self) -> float:
        return self.net * self.speed


def run_op(cli, argv, sampler: SpeedSampler) -> Op:
    out, err = io.StringIO(), io.StringIO()
    caught = None
    start = sampler.mark()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        rc, caught = None, exc
    wall = perf_counter() - t0
    speed, probe_s = sampler.measure(start)
    error = None if caught is None else f"{type(caught).__name__}: {caught}"
    return Op(list(argv), rc, out.getvalue(), err.getvalue(), error, wall, probe_s, speed)


def check_op(workload, op: Op) -> str | None:
    if op.failure:
        return op.failure
    if op.error:
        return op.error
    if op.rc != 0:
        return f"exit {op.rc}: {op.err.strip()[:200]}"
    try:
        return workload.check(op.argv, op.out)
    except Exception as exc:  # malformed output is a failed op, not a crash
        return f"output check raised {exc!r}"


def set_up(workload, workdir: Path, seed: int, sampler: SpeedSampler):
    """Import the package, write the inputs, run one warm-up op.

    Returns (seconds net of speed probes, machine speed, cli module, warm-up op).
    """
    start = sampler.mark()
    t0 = perf_counter()
    cli = importlib.import_module("hyperzeta.cli")
    workload.prepare(lambda argv: run_op(cli, argv, sampler), workdir, seed)
    warm = run_op(cli, workload.warmup_argv(), sampler)
    wall = perf_counter() - t0
    speed, probe_s = sampler.measure(start)
    return wall - probe_s, speed, cli, warm


def set_up_in_fresh_process(args) -> tuple[float, float]:
    """(net seconds, speed) of a set-up in a new process, so no cache of this one helps."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["speed"]


def closed_loop(cli, rounds, n_rounds: int, sampler: SpeedSampler, tracer=None) -> list[Op]:
    """Run `n_rounds` rounds back to back."""
    ops = []
    for _, batch in zip(range(n_rounds), rounds):
        for argv in batch:
            if tracer is not None:
                self_before, nc_before = tracer.total_self, tracer.not_converged()
            op = run_op(cli, argv, sampler)
            if tracer is not None:
                op.traced_self = tracer.total_self - self_before
                if tracer.not_converged() > nc_before:
                    op.failure = "a quadrature kernel did not converge"
            ops.append(op)
        if tracer is not None:
            tracer.end_round()
    return ops


def rounds_for(workload, seconds: float) -> int:
    """Rounds that took `seconds` at the commit that added the benchmark."""
    return max(1, round(seconds / workload.round_s))


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with 10 beyond.

    With 10 samples or fewer no percentile has 10 beyond it; the maximum is
    reported then, labelled p100 with 0 beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def commit_id(root: Path) -> str:
    """HEAD commit read from .git files, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import mpmath

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(Path.cwd()),
        "backend": sys.modules["hyperzeta"].BACKEND,
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }


def check_all(workload, ops, warm) -> tuple[list[str], int]:
    """Failure lines for the warm-up op and the measured ops; measured ops failed."""
    lines = []
    reason = check_op(workload, warm)
    if reason:
        lines.append(f"warm-up op: {reason}")
    failed = 0
    for i, op in enumerate(ops):
        reason = check_op(workload, op)
        if reason:
            failed += 1
            lines.append(f"op {i}: {reason}")
    return lines, failed


def print_failures(lines, failed: int, attempted: int) -> None:
    print(f"fail_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    for line in lines[:10]:
        print(f"FAILED {line}")


def report(correct, attempted, failed, metrics, units) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def timing_metrics(setups, ops, adjusted: bool) -> tuple[dict, dict]:
    """Timing metrics from set-ups [(net, speed)] and ops, adjusted or net wall time."""
    times = [op.adjusted if adjusted else op.net for op in ops]
    tail_s, tail_pct, beyond = tail(times)
    setup_times = [net * speed if adjusted else net for net, speed in setups]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(ops) / sum(times),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in its own process: "
                   + ", ".join(f"{t:.4f}" for t in setup_times),
        "op_p50_s": f"median of {len(ops)} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {len(ops)} samples, {beyond} beyond it",
        "ops_per_s": f"{len(ops)} ops in {sum(times):.3f} s of op time",
    }
    return metrics, notes


def run_untraced(args, workload, workdir) -> None:
    sampler = SpeedSampler()
    with sampler:
        net, speed, cli, warm = set_up(workload, workdir, args.seed, sampler)
    setups = [(net, speed)] + [set_up_in_fresh_process(args)
                              for _ in range(SETUP_REPEATS - 1)]
    with sampler:
        ops = closed_loop(cli, workload.rounds(args.seed),
                          rounds_for(workload, args.seconds), sampler)
    meta = metadata(args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, n_failed = check_all(workload, ops, warm)
    metrics, notes = timing_metrics(setups, ops, adjusted=True)
    raw, _ = timing_metrics(setups, ops, adjusted=False)
    metrics["peak_rss_mb"] = peak_rss_mb
    speeds = [op.speed for op in ops]
    meta["machine_speed"] = {"min": min(speeds), "median": statistics.median(speeds),
                             "max": max(speeds)}
    print(f"workload {workload.name}: {workload.why}")
    print("meta " + json.dumps(meta))
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, unit, _ in END_TO_END:
        if name in raw:  # the timing metrics
            print(f"{name} = {metrics[name]:.6g} {unit}  (speed-adjusted; wall "
                  f"{raw[name]:.6g} {unit}; {notes[name]})")
    print(f"peak_rss_mb = {peak_rss_mb:.6g} MB  (peak resident memory of this process "
          "before the output checks)")
    print_failures(failures, n_failed, len(ops))
    report(not failures, len(ops), n_failed, metrics, units)


def run_traced(args, workload, workdir) -> None:
    tracer = Tracer()
    with SpeedSampler() as sampler:
        _, _, cli, warm = set_up(workload, workdir, args.seed, sampler)
        untraced = closed_loop(cli, workload.rounds(args.seed),
                               rounds_for(workload, args.seconds / 2), sampler)
        tracer.install()
        try:
            traced = closed_loop(cli, workload.rounds(args.seed), workload.trace_rounds,
                                 sampler, tracer)
        finally:
            tracer.uninstall()
    meta = metadata(args)
    backend_lines, backends_agree = backends.compare()
    ops = untraced + traced
    failures, n_failed = check_all(workload, ops, warm)

    walls = [op.wall for op in traced]
    wall_total = sum(walls)
    overhead = (statistics.median(op.adjusted for op in traced)
                - statistics.median(op.adjusted for op in untraced))
    layer = tracer.metrics()
    layer[OVERHEAD_METRIC[0]] = overhead

    print(f"workload {workload.name}: {workload.why}")
    print("meta " + json.dumps(meta))
    print(f"traced phase: {workload.trace_rounds} round(s), {len(traced)} ops, "
          f"{wall_total:.3f} s of op wall time; untraced phase: {len(untraced)} ops")
    if tracer.absent:
        print("not found in the package, reported as 0: " + ", ".join(tracer.absent))
    print("layer self-time shares of traced op wall time:")
    for prefix, *_ in sorted(SPANS, key=lambda s: -layer[f"{s[0]}.self_s"]):
        self_s = layer[f"{prefix}.self_s"]
        if self_s:
            print(f"  {100 * self_s / wall_total:6.2f}%  {prefix}  "
                  f"({layer[f'{prefix}.calls']} calls)")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    for name, unit, _ in per_layer_metrics():
        value = layer[name]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"tracing overhead: traced op_p50_s - untraced op_p50_s = {overhead:.6g} s "
          "(speed-adjusted)")
    shape_layer, roadmap_share = BASELINE_SHAPE[workload.name]
    print(f"baseline shape: {shape_layer} self share "
          f"{100 * layer[shape_layer + '.self_s'] / wall_total:.1f}% "
          f"(ROADMAP baseline: about {100 * roadmap_share:.0f}%)")
    gaps = [(op.wall - op.traced_self) / op.wall for op in traced]
    print(f"self-time check: spans cover op wall time up to a gap of "
          f"{100 * max(gaps):.3f}% (tolerance {100 * SELF_TIME_TOLERANCE:.0f}%): "
          f"{'ok' if max(gaps) <= SELF_TIME_TOLERANCE and min(gaps) >= 0 else 'FAILED'}")
    for line in backend_lines:
        print(line)
    print_failures(failures, n_failed, len(ops))
    report(not failures and backends_agree, len(ops), n_failed, layer, units)


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="amount of work: the rounds that took this long when the "
                        "benchmark was added")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--refs", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    if not (root / "src" / "hyperzeta" / "__init__.py").is_file():
        print("error: run from the repository root; src/hyperzeta is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("HYPERZETA_PRECISION", None)
    workload = make_workload(args.workload, smoke=args.smoke, refs_dir=args.refs)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        if args.setup_only:
            with SpeedSampler() as sampler:
                net, speed, _, _ = set_up(workload, workdir, args.seed, sampler)
            print(json.dumps({"setup_s": net, "speed": speed}))
        elif args.trace:
            run_traced(args, workload, workdir)
        else:
            run_untraced(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
