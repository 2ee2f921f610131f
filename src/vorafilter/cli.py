"""Command-line interface.

Three subcommands:

evaluate  print the (filtered) Vora-Value of a camera against an observer
optimize  design a prefilter maximizing the filtered Vora-Value
check     verify the analytic calculus, including the factored Hessian the
          optimizer runs, against finite differences and the structural
          identities on random filters

Exit codes: 0 success, 2 input error, 3 optimization stalled, 4 verification
failure.
Outputs are pure functions of (input files, flags, seed); re-running
a command reproduces its CSV/JSON output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import importlib.resources
import json
import os
import stat
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .calculus import fd_gradient, fd_hessian, gradient, hessian, make_basis, newton_step
from .errors import VoraFilterError
from .optimize import _INITS, _METHODS, OptimizerConfig, optimize
from .spectral import (
    DEFAULT_GRID,
    FilterSpectrum,
    SensorSet,
    WavelengthGrid,
    _is_integer,
    load_filter_spectrum,
    parse_spectral_csv,
    resample_to_grid,
    write_filter_csv,
)
from .vora import filtered_vora_value, vora_value

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STALLED = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = "1"
DATA_ENV_VAR = "VORA_FILTER_DATA"
DEFAULT_OBSERVER_FILE = "cie1931_2deg_5nm.csv"
DEFAULT_CAMERA_FILE = "gaussian_camera_10nm.csv"

# Identity-check tolerances. tests/test_acceptance.py states each again as a
# literal, so that neither copy can be loosened alone.
CHECK_TOLERANCES = {
    "gradient_vs_fd": 1e-5,
    "hessian_vs_fd": 1e-4,
    "orthogonality": 1e-10,
    "hessian_gradient": 1e-8,
    "positive_definite": 1e-8,
    "newton_closed_form": 1e-8,
    "newton_degeneracy": 1e-4,
}
_PD_ALPHAS = (1e-6, 1e-4, 1e-2)
# Every OptimizerConfig field but ``basis`` is an ``optimize`` flag of its
# name and its default's type; a flag left out keeps that default.
_CONFIG_FIELDS = tuple(f for f in fields(OptimizerConfig) if f.name != "basis")


@contextlib.contextmanager
def _named(label: str):
    """Re-raise the block's input or file error as a VoraFilterError naming
    ``label``; an OSError gives its reason alone, as its text repeats the path."""
    try:
        yield
    except (VoraFilterError, ValueError, OSError) as exc:
        raise VoraFilterError(f"{label}: {getattr(exc, 'strerror', None) or exc}") from exc


def _sensor_source(path: str | None, default_file: str):
    """The label and the file a sensor table is read from: ``path``, else
    ``default_file`` in ``VORA_FILTER_DATA``, else the bundled table."""
    data_dir = os.environ.get(DATA_ENV_VAR)
    if path is None and data_dir:
        path = str(Path(data_dir, default_file))
    if path is not None:
        return path, Path(path)
    return (f"<default {default_file}>",
            importlib.resources.files("vorafilter").joinpath("data", default_file))


@functools.lru_cache(maxsize=8)
def _parsed_sensors(text: str, grid: WavelengthGrid) -> SensorSet:
    """The sensor set a table's text gives on ``grid``. A process keeps the
    last few: keyed on the text, not the path, an edited file or another
    data directory is never stale, and a frozen SensorSet is safe to share."""
    table = parse_spectral_csv(text, expected_channels=3)
    responses = resample_to_grid(table.wavelengths, table.values, grid)
    return SensorSet(grid=grid, responses=responses, channel_names=table.channel_names)


def _load_sensors(path: str | None, default_file: str,
                  grid: WavelengthGrid) -> SensorSet:
    label, source = _sensor_source(path, default_file)
    with _named(label):
        return _parsed_sensors(source.read_text(encoding="utf-8"), grid)


def _load_filter(path: str, grid: WavelengthGrid) -> FilterSpectrum:
    # Any strictly positive filter is read: the floor is the least positive
    # float and there is no ceiling. A design start outside the optimizer's
    # box is rescaled and clipped into it by the optimizer itself.
    with _named(path):
        return load_filter_spectrum(path, grid, np.nextafter(0.0, 1.0), np.inf)


def _spec_fields(spec: str, name: str, form: str, types: tuple) -> list:
    """``spec``'s ``:``-separated fields, converted by ``types``, or ``ValueError``."""
    parts = spec.split(":")
    if len(parts) != len(types):
        raise ValueError(f"{name} must be {form}, got {spec!r}")
    try:
        return [convert(part) for convert, part in zip(types, parts)]
    except ValueError as exc:
        raise ValueError(f"{name} {spec!r}: {exc}") from exc


def _parse_grid(spec: str) -> WavelengthGrid:
    start, step, count = _spec_fields(spec, "grid", "start:step:count", (float, float, int))
    return WavelengthGrid(start_nm=start, step_nm=step, count=count)


def _load_inputs(args: argparse.Namespace) -> tuple[WavelengthGrid, SensorSet, SensorSet]:
    """The grid, camera and observer named by the common flags."""
    grid = _parse_grid(args.grid) if args.grid is not None else DEFAULT_GRID
    return (grid, _load_sensors(args.camera, DEFAULT_CAMERA_FILE, grid),
            _load_sensors(args.observer, DEFAULT_OBSERVER_FILE, grid))


def _parse_basis(spec: str, grid: WavelengthGrid):
    kind, k = _spec_fields(spec, "basis", "kind:k", (str, int))
    return make_basis(kind, k, grid)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on the first call, not at import."""
    parser = argparse.ArgumentParser(
        prog="vorafilter",
        description="Vora-Value evaluation and colorimetric prefilter design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--camera", help="camera sensitivity CSV (default: bundled synthetic camera)")
        p.add_argument("--observer", help="observer CMF CSV (default: bundled CIE 1931 table)")
        p.add_argument("--grid", default=None, help="wavelength grid start:step:count")
        p.add_argument("--json", action="store_true", help="also print a machine-readable JSON line")

    p_eval = sub.add_parser("evaluate", help="print Vora-Values")
    common(p_eval)
    p_eval.add_argument("--filter", help="filter transmittance CSV")

    p_opt = sub.add_parser("optimize", help="design a prefilter")
    common(p_opt)
    p_opt.add_argument("--filter", help="initial filter CSV (default: unit filter)")
    for spec in _CONFIG_FIELDS:
        p_opt.add_argument("--" + spec.name.replace("_", "-"), type=type(spec.default),
                           choices={"method": _METHODS, "init": _INITS}.get(spec.name))
    p_opt.add_argument("--basis", default=None, help="smoothness basis kind:k, e.g. cosine:8")
    p_opt.add_argument("--out-filter", help="write the designed filter CSV here")
    p_opt.add_argument("--out-trace", help="write the iteration trace CSV here")
    p_opt.add_argument("--out-svg", help="write a line plot (filter + objective) here")

    p_check = sub.add_parser("check", help="verify gradients, Hessians, and identities")
    common(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=20)

    return parser


_PATH_FLAGS = ("camera", "observer", "filter", "out_filter", "out_trace", "out_svg")


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse, before any input is read, an empty path flag and an output
    that cannot be written: an existing directory, or a path whose parent
    is not one."""
    for flag in _PATH_FLAGS:
        path = getattr(args, flag, None)
        if path == "":
            raise VoraFilterError(f"--{flag.replace('_', '-')}: empty path")
        if path is not None and flag.startswith("out_"):
            with _named(path):
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                # A parent that cannot be stat'ed raises the OS's own reason.
                if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    grid, camera, observer = _load_inputs(args)
    native = vora_value(camera, observer)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "grid": f"{grid.start_nm:g}:{grid.step_nm:g}:{grid.count}",
        "vora_value": native.raw,
    }
    filtered = None
    if args.filter is not None:
        filt = _load_filter(args.filter, grid)
        with _named(args.filter):
            filtered = filtered_vora_value(camera, observer, filt)
        payload["filtered_vora_value"] = filtered.raw
    print(f"grid: {grid.start_nm:g}:{grid.step_nm:g}:{grid.count} "
          f"({grid.start_nm:g}-{grid.end_nm:g} nm)")
    print(f"vora_value: {native.value:.12f}")
    if filtered is not None:
        print(f"filtered_vora_value: {filtered.value:.12f}")
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _trace_csv(report) -> str:
    lines = ["iter,vora,mu,step,gradnorm,backtracks"]
    for row in report.iterations:
        lines.append(
            f"{row.iteration},{row.vora:.17g},{row.mu:.17g},"
            f"{row.step_len:.17g},{row.grad_inf_norm:.17g},{row.backtracks}"
        )
    return "\n".join(lines) + "\n"


def _svg_polyline(xs, ys, x0, y0, width, height) -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_span = xs.max() - xs.min() or 1.0
    y_span = ys.max() - ys.min() or 1.0
    px = x0 + (xs - xs.min()) / x_span * width
    py = y0 + height - (ys - ys.min()) / y_span * height
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return f'<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" points="{points}"/>'


def _svg_report(report, grid: WavelengthGrid) -> str:
    wavelengths = grid.wavelengths
    filt = report.final_filter.transmittance
    iters = [r.iteration for r in report.iterations]
    voras = [r.vora for r in report.iterations]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="460" '
        'font-family="sans-serif" font-size="11">',
        '<text x="20" y="20">designed filter transmittance</text>',
        '<rect x="50" y="30" width="560" height="160" fill="none" stroke="#999"/>',
        _svg_polyline(wavelengths, filt, 50, 30, 560, 160),
        f'<text x="50" y="205">{wavelengths[0]:g} nm</text>',
        f'<text x="560" y="205">{wavelengths[-1]:g} nm</text>',
        f'<text x="20" y="45">{filt.max():.3f}</text>',
        f'<text x="20" y="190">{filt.min():.4f}</text>',
        '<text x="20" y="250">vora value per iteration</text>',
        '<rect x="50" y="260" width="560" height="160" fill="none" stroke="#999"/>',
        _svg_polyline(iters, voras, 50, 260, 560, 160),
        f'<text x="50" y="435">iter {iters[0]}</text>',
        f'<text x="560" y="435">iter {iters[-1]}</text>',
        f'<text x="20" y="275">{max(voras):.6f}</text>',
        f'<text x="20" y="420">{min(voras):.6f}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _cmd_optimize(args: argparse.Namespace) -> int:
    # Every file the run reads, resolved as the file system does, so that a
    # symlink to an input, or an input's own path, is refused as an output.
    outputs = [p for p in (args.out_filter, args.out_trace, args.out_svg) if p is not None]
    inputs = [str(_sensor_source(args.camera, DEFAULT_CAMERA_FILE)[1]),
              str(_sensor_source(args.observer, DEFAULT_OBSERVER_FILE)[1]), args.filter]
    taken = {os.path.realpath(p) for p in inputs if p is not None}
    for path in outputs:
        key = os.path.realpath(path)
        if key in taken:
            raise VoraFilterError(f"output path collides with another path: {path}")
        taken.add(key)

    grid, camera, observer = _load_inputs(args)
    basis = _parse_basis(args.basis, grid) if args.basis is not None else None
    given = {spec.name: getattr(args, spec.name) for spec in _CONFIG_FIELDS
             if getattr(args, spec.name) is not None}
    config = OptimizerConfig(basis=basis, **given)
    initial = _load_filter(args.filter, grid) if args.filter is not None else None
    report = optimize(camera, observer, config, initial_filter=initial)

    if args.out_filter is not None:
        with _named(args.out_filter):
            write_filter_csv(args.out_filter, report.final_filter)
    if args.out_trace is not None:
        with _named(args.out_trace):
            Path(args.out_trace).write_text(_trace_csv(report), encoding="utf-8", newline="\n")
    if args.out_svg is not None:
        with _named(args.out_svg):
            Path(args.out_svg).write_text(_svg_report(report, grid), encoding="utf-8", newline="\n")

    print(f"initial_vora: {report.initial_vora:.12f}")
    print(f"final_vora: {report.final_vora:.12f}")
    print(f"termination: {report.termination}")
    print(f"iterations: {report.accepted_steps}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "initial_vora": report.initial_vora,
        "final_vora": report.final_vora,
        "termination": report.termination,
        "iterations": report.accepted_steps,
    }
    if report.coefficients is not None:
        coeffs = [float(c) for c in report.coefficients]
        payload["coefficients"] = coeffs
        print("coefficients: " + ",".join(f"{c:.17g}" for c in coeffs))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_STALLED if report.termination == "stalled" else EXIT_OK


def _rel_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference))) or 1.0
    return float(np.max(np.abs(candidate - reference)) / scale)


def run_identity_checks(camera: SensorSet, observer: SensorSet, seed: int,
                        trials: int) -> dict[str, float]:
    """Max observed error per identity over ``trials`` random filters."""
    for name, count in (("trials", trials), ("seed", seed)):
        if not _is_integer(count) or count < 0:
            raise VoraFilterError(f"{name} must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    grid = camera.grid
    errors = {name: 0.0 for name in CHECK_TOLERANCES}

    for _ in range(trials):
        f = rng.uniform(0.2, 1.0, grid.count)
        filt = FilterSpectrum(grid=grid, transmittance=f)
        g = gradient(camera, observer, filt)
        h0 = hessian(camera, observer, filt, alpha=0.0)
        # Each oracle passes its 2n probes to the public function as one stack.
        g_fd = fd_gradient(lambda p: filtered_vora_value(camera, observer, p), filt)
        h_fd = fd_hessian(lambda p: gradient(camera, observer, p), filt)

        g_norm = float(np.linalg.norm(g)) or 1.0
        f_norm = float(np.linalg.norm(f))
        h0f = h0 @ f
        fhf, ff = float(f @ h0f), float(f @ f)
        alpha = 1e-4
        step = newton_step(camera, observer, filt, alpha)
        # The residual of (h0 + alpha I) s = (h0 - alpha I) f: no n x n solve.
        rhs = h0f - alpha * f
        residual = h0 @ step + alpha * step - rhs
        tiny = newton_step(camera, observer, filt, 1e-12)
        trial = {
            "gradient_vs_fd": _rel_err(g, g_fd),
            "hessian_vs_fd": _rel_err(h0, h_fd),
            "orthogonality": abs(float(f @ g)) / (f_norm * g_norm),
            "hessian_gradient": float(np.max(np.abs(g + h0f))),
            "positive_definite": max(abs(fhf + a * ff - a * ff) for a in _PD_ALPHAS),
            "newton_closed_form": float(np.linalg.norm(residual) / np.linalg.norm(rhs)),
            "newton_degeneracy": 1.0 - float(tiny @ f / (np.linalg.norm(tiny) * f_norm)),
        }
        errors = {name: max(errors[name], trial[name]) for name in errors}
    return errors


def _cmd_check(args: argparse.Namespace) -> int:
    _, camera, observer = _load_inputs(args)
    errors = run_identity_checks(camera, observer, args.seed, args.trials)
    all_ok = True
    print(f"{'identity':<22}{'max_error':>14}{'tolerance':>12}  status")
    rows = []
    for name, tol in CHECK_TOLERANCES.items():
        err = errors[name]
        ok = err < tol
        all_ok = all_ok and ok
        status = "ok" if ok else "FAIL"
        print(f"{name:<22}{err:>14.3e}{tol:>12.0e}  {status}")
        rows.append({"identity": name, "max_error": err, "tolerance": tol,
                     "pass": ok})
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "trials": args.trials,
                          "checks": rows, "pass": all_ok}, sort_keys=True))
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_paths(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        return _cmd_check(args)
    except (VoraFilterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
