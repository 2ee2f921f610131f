#!/usr/bin/env python3
"""Benchmark of vorafilter: prefilter design and calculus verification.

Run from the repository root:

    python3 bench/run.py --workload design-paper --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop of one caller; a job starts when the previous
one returns):

design-paper  Newton and gradient designs on the paper grid (n = 31)
design-fine   Newton designs on the 1 nm grid (n = 301)
verify        ``vorafilter check`` through ``cli.main`` (n = 61)
all           every workload, untraced and traced (``--trace both``)

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. The benchmark imports the package from ``src/`` of the
checkout it sits in and exits nonzero, printing no result, if that is
missing. ``bench/README.md`` maps each per-layer metric to the end-to-end
metric it moves.
"""

from __future__ import annotations

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI reads its default CSVs from here when set; use the bundled ones.
os.environ.pop("VORA_FILTER_DATA", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "vorafilter" / "data"
OUT = BENCH_DIR / "out"

WORKLOADS = ("design-paper", "design-fine", "verify")
OBSERVER_CSV = "cie1931_2deg_5nm.csv"
CAMERA_CSV = "gaussian_camera_10nm.csv"
PAPER_GRID = "400:10:31"
FINE_GRID = "400:1:301"
VERIFY_GRID = "400:5:61"
PROBE_GRID = "400:0.5:601"
ALPHA = 1e-6
RANDOM_STARTS = 4
# One random filter per `check` call. A call reports the largest error over
# its trials, a maximum of round-off noise that swings by tens of percent
# from seed to seed; the median over many one-trial calls is steady.
CHECK_TRIALS = 1
BASIS = ("cosine", 8)
# A reported Vora-Value must match the public value function to within this.
RECHECK_TOL = 1e-12

# Independent seed streams derived from the workload seed.
STREAM_RANDOM_INIT, STREAM_CHECK, STREAM_PROBE = 1, 2, 3


@dataclass(frozen=True)
class Size:
    max_iters: int | None  # optimizer cap; None keeps the library default
    gate_calls: int        # `check` calls gating a design workload
    setups: int            # set-ups per run; setup_s is their median
    probe_repeats: int     # calls per probe point
    min_rounds: int        # job lists per run, at least


FULL = Size(max_iters=None, gate_calls=120, setups=15, probe_repeats=5,
            min_rounds=3)
TINY = Size(max_iters=5, gate_calls=1, setups=1, probe_repeats=1, min_rounds=1)


@dataclass
class Ctx:
    vf: object
    cli: object
    grid: object
    camera: object
    observer: object
    basis: object


@dataclass
class Run:
    """Jobs attempted in one run, and every reason the run is not correct."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    jobs: list[dict] = field(default_factory=list)

    def record(self, job: dict) -> dict:
        self.attempted += 1
        self.jobs.append(job)
        if job["problems"]:
            self.failed += 1
            self.problems += [f"{job['name']}: {p}" for p in job["problems"]]
        return job

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def derive_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


# -- set-up ------------------------------------------------------------------

def parse_grid(vf, spec: str):
    start, step, count = spec.split(":")
    return vf.WavelengthGrid(start_nm=float(start), step_nm=float(step),
                             count=int(count))


def setup(grid_spec: str, camera_from_csv: bool) -> tuple[Ctx, float, float]:
    """Import the package, load and resample the observer, build the camera
    and the basis. Returns the context, the total time and the load time."""
    for name in [m for m in sys.modules
                 if m == "vorafilter" or m.startswith("vorafilter.")]:
        del sys.modules[name]
    t0 = perf_counter()
    vf = importlib.import_module("vorafilter")
    cli = importlib.import_module("vorafilter.cli")
    grid = parse_grid(vf, grid_spec)
    t1 = perf_counter()
    observer = vf.load_sensor_set(DATA / OBSERVER_CSV, grid)
    t2 = perf_counter()
    camera = (vf.load_sensor_set(DATA / CAMERA_CSV, grid) if camera_from_csv
              else vf.gaussian_camera(grid))
    basis = vf.make_basis(*BASIS, grid)
    t3 = perf_counter()
    if not Path(vf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported vorafilter from {vf.__file__}, not {SRC}")
    return Ctx(vf, cli, grid, camera, observer, basis), t3 - t0, t2 - t1


def setups(size: Size, grid_spec: str, camera_from_csv: bool):
    totals, loads = [], []
    for _ in range(size.setups):
        ctx, total, load = setup(grid_spec, camera_from_csv)
        totals.append(total)
        loads.append(load)
    return ctx, statistics.median(totals), statistics.median(loads)


# -- jobs --------------------------------------------------------------------

def optimizer_config(ctx: Ctx, size: Size, **kwargs):
    if size.max_iters is not None:
        kwargs["max_iters"] = size.max_iters
    return ctx.vf.OptimizerConfig(**kwargs)


def design_jobs(ctx: Ctx, seed: int, size: Size, paper: bool):
    newton = {"method": "newton", "alpha": ALPHA}
    jobs = [("newton-unit", newton)]
    if paper:
        jobs += [(f"newton-random-{s}", {**newton, "init": "random", "seed": s})
                 for s in (derive_seed(seed, STREAM_RANDOM_INIT, i)
                           for i in range(RANDOM_STARTS))]
    jobs.append(("newton-cosine8", {**newton, "basis": ctx.basis}))
    if paper:
        jobs.append(("grad", {}))
    return [(name, optimizer_config(ctx, size, **kw)) for name, kw in jobs]


def design_job(ctx: Ctx, name: str, config, tracer: Tracer | None):
    job = {"name": name, "problems": []}
    span = tracer.span("optimize.optimize") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span:
            report = ctx.vf.optimize(ctx.camera, ctx.observer, config)
    except Exception:  # a raising job is counted and reported, not fatal
        job["seconds"] = perf_counter() - t0
        job["problems"].append("raised\n" + traceback.format_exc())
        return job, None
    job["seconds"] = perf_counter() - t0
    job.update(termination=report.termination,
               iterations=report.accepted_steps,
               backtracks=sum(r.backtracks for r in report.iterations),
               initial_vora=report.initial_vora, final_vora=report.final_vora)
    final = report.final_vora
    if report.termination == "stalled":
        job["problems"].append("ended stalled")
    if not 0.0 <= final <= 1.0:
        job["problems"].append(f"final_vora {final!r} outside [0, 1]")
    elif final < report.initial_vora:
        job["problems"].append(f"final_vora {final!r} below initial {report.initial_vora!r}")
    recheck = ctx.vf.filtered_vora_value(ctx.camera, ctx.observer,
                                         report.final_filter).raw
    if not abs(recheck - final) <= RECHECK_TOL:
        job["problems"].append(f"final_vora {final!r} re-evaluates to {recheck!r}")
    return job, report


def cli_call(ctx: Ctx, argv: list[str], tracer: Tracer | None):
    """``cli.main(argv)`` in-process; returns (exit code, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = ctx.cli.main(argv)
    except Exception:  # a traceback escaping the CLI is a failed job
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_job(ctx: Ctx, grid_spec: str, seed: int,
              tracer: Tracer | None) -> dict:
    code, out, err, seconds = cli_call(
        ctx, ["check", "--grid", grid_spec, "--seed", str(seed),
              "--trials", str(CHECK_TRIALS), "--json"], tracer)
    job = {"name": f"check {grid_spec} seed={seed}", "seconds": seconds,
           "exit_code": code, "problems": []}
    try:
        payload = last_json(out)
        ratios = {c["identity"]: c["max_error"] / c["tolerance"]
                  for c in payload["checks"]}
    except (ValueError, TypeError, KeyError, ZeroDivisionError):
        job["problems"].append(f"no check JSON (exit {code}): {err.strip()[-2000:]}")
        return job
    job["error_ratio"] = max(ratios.values())
    job["ratios"] = ratios
    if code != 0:
        job["problems"].append(f"exit code {code}: {err.strip()[-2000:]}")
    if payload.get("pass") is not True:
        failing = [c["identity"] for c in payload["checks"] if not c["pass"]]
        job["problems"].append(f"check failed: {failing}")
    return job


def evaluate_job(ctx: Ctx, grid_spec: str) -> dict:
    """``vorafilter evaluate`` against the library's own Vora-Value."""
    code, out, err, seconds = cli_call(
        ctx, ["evaluate", "--grid", grid_spec, "--json"], None)
    job = {"name": f"evaluate {grid_spec}", "seconds": seconds,
           "exit_code": code, "problems": []}
    try:
        job["vora_value"] = float(last_json(out)["vora_value"])
    except (ValueError, TypeError, KeyError):
        job["problems"].append(f"no evaluate JSON (exit {code}): {err.strip()[-2000:]}")
        return job
    expected = ctx.vf.vora_value(ctx.camera, ctx.observer).raw
    if code != 0:
        job["problems"].append(f"exit code {code}")
    if not abs(job["vora_value"] - expected) <= RECHECK_TOL:
        job["problems"].append(f"vora_value {job['vora_value']!r}, library says {expected!r}")
    return job


def closed_loop(seconds: float, min_rounds: int, run_round) -> None:
    """Call ``run_round(i)`` back to back; stop once ``min_rounds`` ran and
    another round of median length would overrun ``seconds``."""
    start = perf_counter()
    walls: list[float] = []
    while True:
        t0 = perf_counter()
        run_round(len(walls))
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return


# -- tracing and probes ------------------------------------------------------

def check_targets(ctx: Ctx):
    """Public names as ``vorafilter.cli`` binds them, and the checked QR
    as the value, calculus and optimizer modules bind it."""
    cli = ctx.cli
    return [
        (cli, "filtered_vora_value", "vora.value"),
        (cli, "gradient", "calculus.gradient"),
        (cli, "hessian", "calculus.hessian"),
        (cli, "newton_step", "optimize.newton_step"),
        (cli, "fd_gradient", "calculus.fd_gradient"),
        (cli, "fd_hessian", "calculus.fd_hessian"),
        (cli, "parse_spectral_csv", "spectral.parse",
         lambda table: len(table.wavelengths)),
        (cli, "resample_to_grid", "spectral.resample"),
    ] + [(sys.modules[f"vorafilter.{m}"], "orthonormal_columns", "projectors.qr")
         for m in ("vora", "calculus", "optimize")]


def check_call_metrics(tracer: Tracer, runs: set[int]) -> dict:
    """Per-``check``-call work from the spans of traced CLI calls."""
    jobs = len(tracer.durations("cli.main", runs))

    def per_job(values) -> float:
        return sum(values) / jobs

    def calls(name: str) -> float:
        return len(tracer.durations(name, runs)) / jobs

    return {
        "calculus.fd_gradient_s": (per_job(tracer.self_times("calculus.fd_gradient", runs)), "s"),
        "calculus.fd_hessian_s": (per_job(tracer.self_times("calculus.fd_hessian", runs)), "s"),
        "calculus.gradient_calls": (calls("calculus.gradient"), "count"),
        "vora.value_calls": (calls("vora.value"), "count"),
        "vora.value_busy_s": (per_job(tracer.durations("vora.value", runs)), "s"),
        "projectors.qr_calls": (calls("projectors.qr"), "count"),
        "cli.main_s": (statistics.median(tracer.durations("cli.main", runs)), "s"),
        "cli.load_s": (per_job(tracer.durations("spectral.parse", runs)
                               + tracer.durations("spectral.resample", runs)), "s"),
        "spectral.rows": (tracer.counts["spectral.parse"] / jobs, "count"),
    }


def probe_calls(ctx: Ctx, filters, coeffs, repeats: int, suffix: str = "") -> dict:
    """Median per-call time, in microseconds, of the public value and
    derivative functions at the given filters and basis coefficients."""
    vf, cam, obs = ctx.vf, ctx.camera, ctx.observer
    qr = sys.modules["vorafilter.projectors"].orthonormal_columns
    samples: dict[str, list[int]] = {}

    def timed(name: str, fn, *args) -> None:
        for _ in range(repeats):
            t0 = perf_counter_ns()
            fn(*args)
            samples.setdefault(name, []).append(perf_counter_ns() - t0)

    for filt in filters:
        timed("vora.value_us", vf.filtered_vora_value, cam, obs, filt)
        timed("calculus.gradient_us", vf.gradient, cam, obs, filt)
        timed("calculus.hessian_us", vf.hessian, cam, obs, filt)
        timed("optimize.newton_step_us", vf.newton_step, cam, obs, filt, ALPHA)
        timed("projectors.qr_us", qr, filt.transmittance[:, None] * cam.responses)
    for c in coeffs:
        timed("calculus.gradient_in_basis_us", vf.gradient_in_basis, cam, obs, ctx.basis, c)
        timed("calculus.hessian_in_basis_us", vf.hessian_in_basis, cam, obs, ctx.basis, c, ALPHA)
    return {name + suffix: (statistics.median(ns) / 1e3, "us")
            for name, ns in samples.items()}


def seeded_points(ctx: Ctx, seed: int):
    """The unit filter, a seeded random filter, and two positive cosine
    combinations: probe points for grids no job runs on."""
    rng = np.random.default_rng(derive_seed(seed, STREAM_PROBE, ctx.grid.count))
    n, k = ctx.grid.count, ctx.basis.size
    filters = [ctx.vf.FilterSpectrum.ones(ctx.grid),
               ctx.vf.FilterSpectrum(grid=ctx.grid,
                                     transmittance=rng.uniform(0.2, 1.0, n))]
    unit = np.eye(k)[0]  # the constant cosine atom
    wiggle = np.concatenate([[1.0], rng.uniform(-0.1, 0.1, k - 1)])
    return filters, [unit, wiggle]


def probe_n601(seed: int, size: Size) -> dict:
    ctx, _, _ = setup(PROBE_GRID, camera_from_csv=False)
    filters, coeffs = seeded_points(ctx, seed)
    return probe_calls(ctx, filters, coeffs, size.probe_repeats, suffix="_n601")


def optimizer_metrics(jobs: list[dict], wall_s: float) -> dict:
    iterations = sum(j["iterations"] for j in jobs)
    converged = sum(j["termination"].startswith("converged") for j in jobs)
    return {
        "optimize.iterations": (iterations, "count"),
        "optimize.backtracks": (sum(j["backtracks"] for j in jobs), "count"),
        "optimize.converged_frac": (converged / len(jobs), "ratio"),
        "optimize.ms_per_iter": (1e3 * wall_s / max(iterations, 1), "ms"),
    }


# -- workloads ---------------------------------------------------------------

def design_workload(seed: int, seconds: float, trace: bool, size: Size,
                    paper: bool) -> tuple[Run, dict, dict]:
    run = Run()
    grid_spec = PAPER_GRID if paper else FINE_GRID
    ctx, setup_s, load_s = setups(size, grid_spec, camera_from_csv=False)
    jobs = design_jobs(ctx, seed, size, paper)
    tracer = Tracer()
    rounds: list[tuple[bool, list[dict], list]] = []

    def one_round(i: int) -> None:
        traced = trace and i % 2 == 1
        tracer.run_id = i
        done = [design_job(ctx, name, cfg, tracer if traced else None)
                for name, cfg in jobs]
        rounds.append((traced, [run.record(j) for j, _ in done],
                       [r for _, r in done]))

    closed_loop(seconds, max(size.min_rounds, 2 if trace else 1), one_round)
    if run.failed:
        return run, {}, {}

    def outcome(round_jobs):
        return ([j["final_vora"] for j in round_jobs],
                [j["iterations"] for j in round_jobs])

    def wall(round_jobs) -> float:
        return sum(j["seconds"] for j in round_jobs)

    plain = [r for r in rounds if not r[0]]
    traced_rounds = [r for r in rounds if r[0]]
    first = plain[0][1]
    for traced, round_jobs, _ in rounds[1:]:
        kind = "traced" if traced else "untraced"
        run.require(outcome(round_jobs) == outcome(first),
                    f"a {kind} round's final_vora or iterations differ from the first round's")
    if trace and not run.problems:
        run.notes.append(f"{len(traced_rounds)} traced and {len(plain)} untraced rounds "
                         "give identical final_vora and iterations")
    wall_s = statistics.median(wall(r[1]) for r in plain)

    gate = []
    with tracer.patched(check_targets(ctx)) if trace else contextlib.nullcontext():
        for k in range(size.gate_calls):
            tracer.run_id = len(rounds) + k
            gate.append(run.record(check_job(
                ctx, PAPER_GRID, derive_seed(seed, STREAM_CHECK, k),
                tracer if trace else None)))
    if run.failed:
        return run, {}, {}

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "final_vora_mean": (statistics.fmean(j["final_vora"] for j in first), "ratio"),
        "check_error_ratio": (statistics.median(j["error_ratio"] for j in gate), "ratio"),
    }
    if not trace:
        return run, e2e, {}

    layers = optimizer_metrics(first, wall_s)
    layers["trace.overhead_s"] = (
        statistics.median(wall(r[1]) for r in traced_rounds) - wall_s, "s")
    layers["spectral.load_s"] = (load_s, "s")
    gate_runs = set(range(len(rounds), len(rounds) + size.gate_calls))
    layers.update(check_call_metrics(tracer, gate_runs))

    filters, coeffs = {}, []
    for (name, cfg), report in zip(jobs, plain[0][2]):
        n = ctx.grid.count
        if cfg.init == "random":
            # The optimizer's random start, up to its scale gauge.
            start = np.random.default_rng(cfg.seed).uniform(cfg.tau_min, cfg.tau_max, n)
        else:
            start = np.ones(n)
        for values in (start, report.final_filter.transmittance):
            filters.setdefault(values.tobytes(), ctx.vf.FilterSpectrum(
                grid=ctx.grid, transmittance=values, tau_min=cfg.tau_min))
        if cfg.basis is not None:
            fit, *_ = np.linalg.lstsq(ctx.basis.basis, np.ones(n), rcond=None)
            coeffs += [fit, report.coefficients]
    layers.update(probe_calls(ctx, filters.values(), coeffs, size.probe_repeats))
    layers.update(probe_n601(seed, size))
    write_spans(tracer, "design-paper" if paper else "design-fine", seed, size)
    return run, e2e, layers


def verify_workload(seed: int, seconds: float, trace: bool,
                    size: Size) -> tuple[Run, dict, dict]:
    run = Run()
    ctx, setup_s, load_s = setups(size, VERIFY_GRID, camera_from_csv=True)
    tracer = Tracer()
    rounds: list[tuple[bool, dict]] = []

    def one_round(i: int) -> None:
        # Traced runs repeat each seed, untraced then traced, to compare.
        traced = trace and i % 2 == 1
        job_seed = derive_seed(seed, STREAM_CHECK, i // 2 if trace else i)
        tracer.run_id = i
        with tracer.patched(check_targets(ctx)) if traced else contextlib.nullcontext():
            job = check_job(ctx, VERIFY_GRID, job_seed,
                            tracer if traced else None)
        rounds.append((traced, run.record(job)))

    closed_loop(seconds, max(size.min_rounds, 2 if trace else 1), one_round)
    evaluate = run.record(evaluate_job(ctx, VERIFY_GRID))
    if run.failed:
        return run, {}, {}

    plain = [job for traced, job in rounds if not traced]
    wall_s = statistics.median(j["seconds"] for j in plain)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "final_vora_mean": (evaluate["vora_value"], "ratio"),
        "check_error_ratio": (statistics.median(j["error_ratio"] for j in plain), "ratio"),
    }
    if not trace:
        return run, e2e, {}

    pairs = [(rounds[i][1], rounds[i + 1][1]) for i in range(0, len(rounds) - 1, 2)]
    for untraced, traced in pairs:
        run.require(untraced["ratios"] == traced["ratios"],
                    f"traced {traced['name']} disagrees with its untraced run")
    if not run.problems:
        run.notes.append(f"{len(pairs)} traced check calls reproduce their untraced errors exactly")
    traced_runs = {i for i, (traced, _) in enumerate(rounds) if traced}
    layers = {
        "trace.overhead_s": (statistics.median(t["seconds"] for _, t in pairs)
                             - statistics.median(u["seconds"] for u, _ in pairs), "s"),
        "spectral.load_s": (load_s, "s"),
        "vora.value_us": (tracer.median_us("vora.value", traced_runs), "us"),
        "calculus.gradient_us": (tracer.median_us("calculus.gradient", traced_runs), "us"),
        "calculus.hessian_us": (tracer.median_us("calculus.hessian", traced_runs), "us"),
        "optimize.newton_step_us": (tracer.median_us("optimize.newton_step", traced_runs), "us"),
        "projectors.qr_us": (tracer.median_us("projectors.qr", traced_runs), "us"),
    }
    layers.update(check_call_metrics(tracer, traced_runs))
    _, coeffs = seeded_points(ctx, seed)
    layers.update(probe_calls(ctx, [], coeffs, size.probe_repeats))
    # check runs no optimizer: one Newton design on the same grid stands in.
    job, _ = design_job(ctx, "newton-unit", optimizer_config(
        ctx, size, method="newton", alpha=ALPHA), None)
    run.record(job)
    if not job["problems"]:
        layers.update(optimizer_metrics([job], job["seconds"]))
    layers.update(probe_n601(seed, size))
    write_spans(tracer, "verify", seed, size)
    return run, e2e, layers


def write_spans(tracer: Tracer, workload: str, seed: int, size: Size) -> None:
    OUT.mkdir(exist_ok=True)
    tag = "-tiny" if size is TINY else ""
    tracer.write(OUT / f"{workload}-seed{seed}{tag}-spans.csv")


# -- reporting ---------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
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


def environment(args) -> dict:
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: Size):
    if workload == "verify":
        return verify_workload(seed, seconds, trace, size)
    return design_workload(seed, seconds, trace, size,
                           paper=workload == "design-paper")


def report(workload: str, trace: bool, run: Run, e2e: dict, layers: dict,
           env: dict, size: Size) -> dict:
    metrics = layers if trace else e2e
    print(f"== {workload} trace={int(trace)} seed={env['seed']}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name} = {value!r} {unit}")
    print(f"  fail_frac = {run.failed / max(run.attempted, 1)!r} "
          f"({run.failed} of {run.attempted} jobs failed)")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"FAIL {workload}: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tag = "-tiny" if size is TINY else ""
    path = OUT / f"{workload}-seed{env['seed']}-trace{int(trace)}{tag}.json"
    path.write_text(json.dumps({
        "workload": workload, "trace": trace, "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layers}.items()},
        "problems": run.problems, "jobs": run.jobs}, indent=1, default=str))
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest job lists, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "vorafilter" / "__init__.py").is_file():
        print(f"bench: no vorafilter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = TINY if args.tiny else FULL
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace == "both" else (args.trace == "1",)
    results = {}
    for workload in workloads:
        for trace in traces:
            run, e2e, layers = run_workload(workload, args.seed, args.seconds,
                                            trace, size)
            results[(workload, trace)] = report(workload, trace, run, e2e,
                                                layers, env, size)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for (w, _), r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
