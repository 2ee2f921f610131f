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
import importlib.resources
import json
import os
import sys

import numpy as np

from .calculus import fd_gradient, fd_hessian, gradient, hessian, make_basis, newton_step
from .errors import NoAscent, VoraFilterError
from .optimize import OptimizerConfig, optimize
from .spectral import (
    DEFAULT_GRID,
    FilterSpectrum,
    SensorSet,
    WavelengthGrid,
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

# Identity-check tolerances, shared with the acceptance suite.
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
# ``optimize`` flags that set the OptimizerConfig field of the same name;
# one left out keeps that field's default.
_CONFIG_FLAGS = ("method", "alpha", "max_iters", "tol_obj", "tol_grad",
                 "tau_min", "tau_max", "init", "seed")


def _read_default_text(filename: str) -> str:
    data_dir = os.environ.get(DATA_ENV_VAR)
    if data_dir:
        with open(os.path.join(data_dir, filename), "r", encoding="utf-8") as fh:
            return fh.read()
    return (importlib.resources.files("vorafilter")
            .joinpath("data", filename).read_text(encoding="utf-8"))


def _load_sensors(path: str | None, default_file: str,
                  grid: WavelengthGrid) -> SensorSet:
    label = path if path is not None else f"<default {default_file}>"
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = _read_default_text(default_file)
        table = parse_spectral_csv(text, expected_channels=3)
        responses = resample_to_grid(table.wavelengths, table.values, grid)
        names = table.channel_names
        return SensorSet(grid=grid, responses=responses,
                         channel_names=(names[0], names[1], names[2]))
    except (VoraFilterError, ValueError) as exc:
        raise VoraFilterError(f"{label}: {exc}") from exc


def _load_filter(path: str, grid: WavelengthGrid) -> FilterSpectrum:
    # Any strictly positive filter is read: the floor is the least positive
    # float and there is no ceiling. A design start outside the optimizer's
    # box is rescaled and clipped into it by the optimizer itself.
    try:
        return load_filter_spectrum(path, grid, np.nextafter(0.0, 1.0), np.inf)
    except (VoraFilterError, ValueError) as exc:
        raise VoraFilterError(f"{path}: {exc}") from exc


def _parse_grid(spec: str) -> WavelengthGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:count, got {spec!r}")
    return WavelengthGrid(start_nm=float(parts[0]), step_nm=float(parts[1]),
                          count=int(parts[2]))


def _load_inputs(args: argparse.Namespace) -> tuple[WavelengthGrid, SensorSet, SensorSet]:
    """The grid, camera and observer named by the common flags."""
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
    return (grid, _load_sensors(args.camera, DEFAULT_CAMERA_FILE, grid),
            _load_sensors(args.observer, DEFAULT_OBSERVER_FILE, grid))


def _parse_basis(spec: str, grid: WavelengthGrid):
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"basis must be kind:k, got {spec!r}")
    return make_basis(parts[0], int(parts[1]), grid)


def build_parser() -> argparse.ArgumentParser:
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
    p_opt.add_argument("--method", choices=("grad", "newton"))
    p_opt.add_argument("--alpha", type=float)
    p_opt.add_argument("--basis", default=None, help="smoothness basis kind:k, e.g. cosine:8")
    p_opt.add_argument("--init", choices=("ones", "random"))
    p_opt.add_argument("--seed", type=int)
    p_opt.add_argument("--max-iters", type=int)
    p_opt.add_argument("--tol-obj", type=float)
    p_opt.add_argument("--tol-grad", type=float)
    p_opt.add_argument("--tau-min", type=float)
    p_opt.add_argument("--tau-max", type=float)
    p_opt.add_argument("--out-filter", help="write the designed filter CSV here")
    p_opt.add_argument("--out-trace", help="write the iteration trace CSV here")
    p_opt.add_argument("--out-svg", help="write a line plot (filter + objective) here")
    p_opt.add_argument("--emit-coeffs", action="store_true",
                       help="report basis coefficients of the designed filter")

    p_check = sub.add_parser("check", help="verify gradients, Hessians, and identities")
    common(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=20)

    return parser


def _cmd_evaluate(args: argparse.Namespace) -> int:
    grid, camera, observer = _load_inputs(args)
    native = vora_value(camera, observer)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "grid": f"{grid.start_nm:g}:{grid.step_nm:g}:{grid.count}",
        "vora_value": native.raw,
    }
    filtered = None
    if args.filter:
        filt = _load_filter(args.filter, grid)
        try:
            filtered = filtered_vora_value(camera, observer, filt)
        except VoraFilterError as exc:
            raise VoraFilterError(f"{args.filter}: {exc}") from exc
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
    outputs = [p for p in (args.out_filter, args.out_trace, args.out_svg) if p]
    inputs = [p for p in (args.camera, args.observer, args.filter) if p]
    taken = {os.path.abspath(p) for p in inputs}
    for path in outputs:
        key = os.path.abspath(path)
        if key in taken:
            raise VoraFilterError(f"output path collides with another path: {path}")
        taken.add(key)

    grid, camera, observer = _load_inputs(args)
    basis = _parse_basis(args.basis, grid) if args.basis else None
    given = {name: getattr(args, name) for name in _CONFIG_FLAGS
             if getattr(args, name) is not None}
    config = OptimizerConfig(basis=basis, **given)
    initial = None
    if args.filter:
        initial = _load_filter(args.filter, grid)
    report = optimize(camera, observer, config, initial_filter=initial)

    if args.out_filter:
        write_filter_csv(args.out_filter, report.final_filter)
    if args.out_trace:
        with open(args.out_trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_trace_csv(report))
    if args.out_svg:
        with open(args.out_svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_svg_report(report, grid))

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
    if args.emit_coeffs and report.coefficients is not None:
        coeffs = [float(c) for c in report.coefficients]
        payload["coefficients"] = coeffs
        print("coefficients: " + ",".join(f"{c:.17g}" for c in coeffs))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_STALLED if report.termination == "stalled" else EXIT_OK


def _rel_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0:
        return float(np.max(np.abs(candidate - reference)))
    return float(np.max(np.abs(candidate - reference)) / scale)


def run_identity_checks(camera: SensorSet, observer: SensorSet, seed: int,
                        trials: int) -> dict[str, float]:
    """Max observed error per identity over ``trials`` random filters."""
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

        errors["gradient_vs_fd"] = max(errors["gradient_vs_fd"], _rel_err(g, g_fd))
        errors["hessian_vs_fd"] = max(errors["hessian_vs_fd"], _rel_err(h0, h_fd))
        g_norm = float(np.linalg.norm(g)) or 1.0
        f_norm = float(np.linalg.norm(f))
        errors["orthogonality"] = max(errors["orthogonality"],
                                      abs(float(f @ g)) / (f_norm * g_norm))
        errors["hessian_gradient"] = max(errors["hessian_gradient"],
                                         float(np.max(np.abs(g + h0 @ f))))
        pd_err = max(abs(float(f @ ((h0 + alpha * np.eye(grid.count)) @ f))
                         - alpha * float(f @ f))
                     for alpha in _PD_ALPHAS)
        errors["positive_definite"] = max(errors["positive_definite"], pd_err)

        alpha = 1e-4
        step = newton_step(camera, observer, filt, alpha)
        closed = np.linalg.solve(h0 + alpha * np.eye(grid.count),
                                 (h0 - alpha * np.eye(grid.count)) @ f)
        errors["newton_closed_form"] = max(
            errors["newton_closed_form"],
            float(np.linalg.norm(step - closed) / np.linalg.norm(step)))

        tiny = newton_step(camera, observer, filt, 1e-12)
        cos = float(tiny @ f / (np.linalg.norm(tiny) * np.linalg.norm(f)))
        errors["newton_degeneracy"] = max(errors["newton_degeneracy"], 1.0 - cos)
    return errors


def _cmd_check(args: argparse.Namespace) -> int:
    _, camera, observer = _load_inputs(args)
    if args.trials < 0:
        raise VoraFilterError("trials must be nonnegative")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        return _cmd_check(args)
    except (VoraFilterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALLED if isinstance(exc, NoAscent) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
