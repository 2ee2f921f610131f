"""Command-line interface: outputs, determinism, and exit codes."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (cie_csv_text, make_random_camera, sabotage_gradient,
                      sabotage_newton_step)
from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    OptimizerConfig,
    VoraFilterError,
    WavelengthGrid,
    filtered_vora_value,
    format_spectral_csv,
    load_sensor_set,
    make_basis,
    optimize,
    parse_spectral_csv,
    vora_value,
)
from vorafilter import cli
from vorafilter.cli import (
    CHECK_TOLERANCES,
    DEFAULT_CAMERA_FILE,
    DEFAULT_OBSERVER_FILE,
    _load_sensors,
    main,
    run_identity_checks,
)


@pytest.fixture
def cie_path(tmp_path):
    path = tmp_path / "cie.csv"
    path.write_text(cie_csv_text(), encoding="utf-8")
    return path


@pytest.fixture
def colorimetric_path(tmp_path, observer):
    t = np.array([[0.3, 0.1, 0.0], [0.2, 0.9, 0.05], [0.01, 0.2, 1.1]])
    text = format_spectral_csv(DEFAULT_GRID.wavelengths,
                               observer.responses @ t, ("r", "g", "b"))
    path = tmp_path / "colorimetric.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestEvaluate:
    def test_camera_equals_observer_prints_one(self, capsys, cie_path):
        code = main(["evaluate", "--camera", str(cie_path),
                     "--observer", str(cie_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "vora_value: 1.000000000000" in out

    def test_printed_value_matches_library(self, capsys, camera, observer):
        code = main(["evaluate", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        expected = vora_value(camera, observer).raw
        line = next(l for l in out.splitlines() if l.startswith("vora_value:"))
        assert line.split(": ")[1] == f"{expected:.12f}"
        payload = json.loads(out.splitlines()[-1])
        assert payload["schema_version"] == "1"
        assert payload["vora_value"] == expected

    def test_missing_file_exits_2_and_names_path(self, capsys, tmp_path):
        code = main(["evaluate", "--camera", "/nonexistent/cam.csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "/nonexistent/cam.csv" in err
        # Any file that cannot be read or written is named once, with the
        # reason: a directory given as input, and each output in a missing one.
        cases = [(["evaluate", "--camera", str(tmp_path)], tmp_path, "Is a directory")]
        for flag in ("--out-filter", "--out-trace", "--out-svg"):
            path = tmp_path / "missing" / "out"
            cases.append((["optimize", "--max-iters", "1", flag, str(path)], path,
                          "No such file or directory"))
        for argv, path, reason in cases:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_malformed_csv_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength,r,g,b\n400,1,2\n", encoding="utf-8")
        code = main(["evaluate", "--camera", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.csv" in err and "line 2" in err

    @pytest.mark.parametrize("command, flag", [("evaluate", "--camera"),
                                               ("evaluate", "--observer"),
                                               ("evaluate", "--filter"),
                                               ("optimize", "--filter"),
                                               ("check", "--camera")])
    def test_empty_path_is_named_by_its_flag(self, capsys, command, flag):
        assert main([command, flag, ""]) == 2
        assert capsys.readouterr() == ("", f"error: {flag}: empty path\n")

    @pytest.mark.parametrize("command, flag", [("evaluate", "--camera"),
                                               ("evaluate", "--filter"),
                                               ("optimize", "--filter")])
    def test_undecodable_file_exits_2_naming_path(self, capsys, tmp_path, command, flag):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xffwavelength,r,g,b\n")
        code = main([command, flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: " in err and "decode" in err

    def test_rank_deficient_camera_exits_2_naming_path(self, capsys, tmp_path):
        # The sensor set's rank is read from the R of the QR that builds its
        # basis: three copies of one channel have rank 1.
        lam = DEFAULT_GRID.wavelengths
        lobe = np.exp(-0.5 * ((lam - 550.0) / 30.0) ** 2)
        path = tmp_path / "flat.csv"
        path.write_text(format_spectral_csv(lam, np.column_stack([lobe] * 3),
                                            ("r", "g", "b")), encoding="utf-8")
        code = main(["evaluate", "--camera", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: sensor responses" in err

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        lam = DEFAULT_GRID.wavelengths
        text = format_spectral_csv(lam, np.linspace(0.3, 0.9, lam.size),
                                   ("transmittance",))
        values = []
        for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(text, encoding=encoding)
            assert main(["evaluate", "--filter", str(path), "--json"]) == 0
            values.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
        assert values[0] == values[1]

    @pytest.mark.parametrize("spec, field", [("nan:10:31", "start_nm"),
                                             ("400:inf:31", "step_nm")])
    def test_non_finite_grid_exits_2_naming_the_field(self, capsys, spec, field):
        code = main(["evaluate", "--grid", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err

    def test_grid_override(self, capsys):
        code = main(["evaluate", "--grid", "420:20:12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "grid: 420:20:12 (420-640 nm)" in out

    def test_filter_changes_value(self, capsys, tmp_path):
        lam = DEFAULT_GRID.wavelengths
        trans = 0.2 + 0.8 * np.exp(-0.5 * ((lam - 460.0) / 40.0) ** 2)
        fpath = tmp_path / "filter.csv"
        fpath.write_text(format_spectral_csv(lam, trans, ("transmittance",)),
                         encoding="utf-8")
        code = main(["evaluate", "--filter", str(fpath), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert "filtered_vora_value" in payload
        assert payload["filtered_vora_value"] != payload["vora_value"]

    def test_any_strictly_positive_filter_is_valued(self, capsys, tmp_path, camera,
                                                    observer):
        fpath = tmp_path / "filter.csv"

        def evaluate(trans):
            fpath.write_text(format_spectral_csv(DEFAULT_GRID.wavelengths, trans,
                                                 ("transmittance",)), encoding="utf-8")
            code = main(["evaluate", "--filter", str(fpath), "--json"])
            return code, capsys.readouterr()

        # An entry far below any physical floor is still a valid filter.
        trans = np.ones(DEFAULT_GRID.count)
        trans[5] = 1e-13
        code, captured = evaluate(trans)
        assert code == 0
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=trans, tau_min=1e-13)
        assert json.loads(captured.out.splitlines()[-1])["filtered_vora_value"] == \
            filtered_vora_value(camera, observer, filt).raw
        # A zero entry is not, and is refused before anything is printed.
        trans[5] = 0.0
        code, captured = evaluate(trans)
        assert (code, captured.out) == (2, "")
        assert "strictly positive" in captured.err

    @staticmethod
    def evaluate_overflow(capsys, fpath, trans, camera_args):
        """Exit code and stderr lines of ``evaluate`` with ``trans`` as a
        filter file at ``fpath``."""
        fpath.write_text(format_spectral_csv(DEFAULT_GRID.wavelengths, trans,
                                             ("transmittance",)), encoding="utf-8")
        code = main(["evaluate", "--filter", str(fpath)] + camera_args)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err.splitlines()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filter_overflowing_the_camera_exits_2_naming_path(self, capsys, tmp_path,
                                                               cie_path):
        # With the CIE table as the camera, 1.7e308 at 450 nm, where z-bar
        # peaks near 1.78, overflows the filtered camera.
        trans = np.ones(DEFAULT_GRID.count)
        trans[5] = 1.7e308
        fpath = tmp_path / "huge.csv"
        assert self.evaluate_overflow(capsys, fpath, trans, ["--camera", str(cie_path)]) == (
            2, [f"error: {fpath}: matrix of shape (31, 3) overflows: its QR is not finite"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filter_overflowing_the_qr_exits_2_naming_path(self, capsys, tmp_path):
        # 1.7e308 at every sample through the bundled camera, which peaks at
        # 1: the filtered camera is finite and its QR overflows.
        fpath = tmp_path / "huge_everywhere.csv"
        trans = np.full(DEFAULT_GRID.count, 1.7e308)
        assert self.evaluate_overflow(capsys, fpath, trans, []) == (
            2, [f"error: {fpath}: matrix of shape (31, 3) overflows: its QR is not finite"])


class TestOptimize:
    def test_colorimetric_camera_trace(self, capsys, tmp_path, colorimetric_path,
                                       cie_path):
        trace = tmp_path / "trace.csv"
        code = main(["optimize", "--camera", str(colorimetric_path),
                     "--observer", str(cie_path), "--out-trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "final_vora: 1.000000000000" in out
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "iter,vora,mu,step,gradnorm,backtracks"
        assert len(rows) - 1 <= 2

    def test_newton_at_default_alpha_converges(self, capsys):
        # Newton, and the default method when no --method is given.
        for method in (["--method", "newton"], []):
            code = main(["optimize", *method, "--json"])
            payload = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert code == 0
            assert payload["termination"] in ("converged_grad", "converged_obj")

    def test_newton_accepts_zero_alpha(self, capsys):
        code = main(["optimize", "--method", "newton", "--alpha", "0", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert payload["termination"] in ("converged_grad", "converged_obj")

    def test_basis_coefficients_reconstruct_filter(self, capsys, tmp_path):
        out_filter = tmp_path / "filter.csv"
        code = main(["optimize", "--basis", "cosine:8", "--max-iters", "200",
                     "--json", "--out-filter", str(out_filter)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        coeffs = np.array(payload["coefficients"])
        assert coeffs.shape == (8,)
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        rebuilt = basis.basis @ coeffs
        written = np.array([float(line.split(",")[1]) for line in
                            out_filter.read_text().strip().splitlines()[1:]])
        assert np.max(np.abs(rebuilt - written)) < 1e-12

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        code = main(["optimize", "--max-iters", "20", "--out-svg", str(svg)])
        capsys.readouterr()
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert content.count("<polyline") == 2

    def test_stalled_exits_3(self, capsys, tmp_path):
        code = main(["optimize", "--basis", "cosine:2", "--tau-min", "0.5",
                     "--tol-grad", "0", "--tol-obj", "0",
                     "--max-iters", "3000"])
        out = capsys.readouterr().out
        assert code == 3
        assert "termination: stalled" in out

    @pytest.mark.parametrize("flags, expected, termination",
                             [([], 0, "converged_obj"), (["--tol-obj", "0"], 3, "stalled")],
                             ids=["converged_obj", "stalled"])
    def test_no_improving_step_at_the_start(self, capsys, colorimetric_path, flags,
                                            expected, termination):
        # A colorimetric camera is already at the optimum, so with no
        # gradient tolerance the first iteration finds no improving step.
        code = main(["optimize", "--camera", str(colorimetric_path),
                     "--tol-grad", "0", *flags])
        captured = capsys.readouterr()
        assert code == expected
        assert f"termination: {termination}\niterations: 0\n" in captured.out
        assert captured.err == ""

    def test_rank_deficient_start_filter_exits_2(self, capsys, tmp_path):
        # A start filter that leaves the filtered camera of rank 2 is an
        # input error, not a stalled run.
        trans = np.full(DEFAULT_GRID.count, 1e-200)
        trans[15:17] = 1.0
        fpath = tmp_path / "underflow.csv"
        fpath.write_text(format_spectral_csv(DEFAULT_GRID.wavelengths, trans,
                                             ("transmittance",)), encoding="utf-8")
        code = main(["optimize", "--filter", str(fpath), "--tau-min", "1e-300"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tau_min", ["1e-200", "5e-324"])
    def test_tiny_floor_ends_stalled_without_a_warning(self, capsys, tau_min):
        # A row clipped to a floor far below the filter's scale overflows
        # grad's model; the run ends stalled, with nothing on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["optimize", "--tau-min", tau_min])
        out, err = capsys.readouterr()
        assert code == 3
        assert "termination: stalled" in out
        assert err == ""

    def test_newton_at_a_tiny_floor_converges(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["optimize", "--method", "newton", "--tau-min", "1e-200"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert "final_vora: 0.996936173527" in out
        assert "iterations: 13\n" in out

    @pytest.mark.parametrize("flags, bound", [
        ([], 150),  # the gradient method, 132 steps
        (["--method", "newton", "--grid", "400:0.5:601"], 20),  # 11 iterations
    ], ids=["grad", "newton-601"])
    def test_design_converges_within_its_bound(self, capsys, flags, bound):
        code = main(["optimize", *flags, "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert payload["termination"].startswith("converged")
        assert payload["iterations"] <= bound

    def test_no_flags_run_the_library_defaults(self, capsys, camera, observer):
        code = main(["optimize", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        report = optimize(camera, observer)
        assert code == 0
        assert payload["final_vora"] == report.final_vora
        assert payload["iterations"] == report.accepted_steps
        assert payload["termination"] == report.termination

    def test_each_flag_sets_its_config_field(self, monkeypatch):
        # Every OptimizerConfig field but basis is a flag of its name, and a
        # value off its default reaches the config as given.
        given = {"method": "newton", "alpha": 1e-3, "max_iters": 2, "tol_obj": 1e-9,
                 "tol_grad": 1e-7, "tau_min": 1e-3, "tau_max": 0.9, "init": "random",
                 "seed": 5}
        assert set(given) == {spec.name for spec in fields(OptimizerConfig)} - {"basis"}
        assert all(value != getattr(OptimizerConfig(), name) for name, value in given.items())
        configs = []

        def recorded(camera, observer, config, **kwargs):
            configs.append(config)
            return optimize(camera, observer, config, **kwargs)

        monkeypatch.setattr(cli, "optimize", recorded)
        argv = ["optimize"] + [f"--{name.replace('_', '-')}={value}"
                               for name, value in given.items()]
        assert main(argv) == 0
        assert configs == [OptimizerConfig(**given)]

    @pytest.mark.parametrize("flag, spec", [("--grid", "400:10"),
                                            ("--grid", "400:x:31"),
                                            ("--basis", "cosine"),
                                            ("--basis", "cosine:x")])
    def test_malformed_spec_exits_2_naming_it(self, capsys, flag, spec):
        code = main(["optimize", flag, spec])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(spec) in err

    @pytest.mark.parametrize("command, flag", [("evaluate", "--grid"),
                                               ("optimize", "--basis"),
                                               ("evaluate", "--filter"),
                                               ("optimize", "--filter"),
                                               ("optimize", "--out-filter"),
                                               ("optimize", "--out-trace"),
                                               ("optimize", "--out-svg")])
    def test_empty_value_exits_2(self, capsys, command, flag):
        # An empty value is refused as any other bad one, never read as no flag.
        code = main([command, flag, ""])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("flag", ["--out-filter", "--out-trace", "--out-svg"])
    def test_unwritable_output_exits_2_before_any_input_is_read(self, capsys, tmp_path,
                                                                 monkeypatch, flag):
        # An output is checked before the inputs are read and the design
        # runs, and named with the reason its write would give.
        def unreached(*args, **kwargs):
            raise AssertionError("an unwritable output reached the run")

        monkeypatch.setattr(cli, "_load_sensors", unreached)
        monkeypatch.setattr(cli, "optimize", unreached)
        a_file = tmp_path / "file.csv"
        a_file.write_text("", encoding="utf-8")
        missing, under_file = tmp_path / "missing" / "out", a_file / "out"
        for path, message in [("", f"{flag}: empty path"),
                              (tmp_path, f"{tmp_path}: Is a directory"),
                              (missing, f"{missing}: No such file or directory"),
                              (under_file, f"{under_file}: Not a directory")]:
            assert main(["optimize", flag, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_identity_basis_exits_2_naming_the_kinds(self, capsys):
        # Full mode is the identity basis; the --basis kinds are the smooth ones.
        code = main(["optimize", "--basis", "identity:8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "unknown basis kind" in lines[0]
        assert "'cosine'" in lines[0] and "'gaussian'" in lines[0]

    def test_non_numeric_filter_cell_exits_2_naming_path_and_line(self, capsys,
                                                                  tmp_path):
        lines = format_spectral_csv(DEFAULT_GRID.wavelengths, np.full(31, 0.5),
                                    ("transmittance",)).splitlines()
        lines[5] = lines[5].split(",")[0] + ",abc"
        path = tmp_path / "filter.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command in ("evaluate", "optimize"):
            code = main([command, "--filter", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert f"{path}: line 6" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2_naming_the_field(self, capsys, alpha):
        code = main(["optimize", "--method", "newton", "--alpha", alpha])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha" in err

    def test_output_collision_exits_2(self, capsys, tmp_path, monkeypatch, cie_path):
        path = tmp_path / "same.csv"
        code = main(["optimize", "--out-filter", str(path),
                     "--out-trace", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "same.csv" in err
        # An output that resolves to a file the run reads: a symlink to the
        # camera, or the VORA_FILTER_DATA camera read in the bundled one's place.
        link = tmp_path / "link.csv"
        link.symlink_to(cie_path)
        fixture = tmp_path / DEFAULT_CAMERA_FILE
        fixture.write_text(cie_csv_text(), encoding="utf-8")
        for out, argv, env in [(link, ["--camera", str(cie_path)], None),
                               (fixture, [], str(tmp_path))]:
            if env:
                monkeypatch.setenv("VORA_FILTER_DATA", env)
            code = main(["optimize", *argv, "--out-filter", str(out)])
            assert (code, capsys.readouterr().err) == (
                2, f"error: output path collides with another path: {out}\n")
            assert out.read_text(encoding="utf-8") == cie_csv_text()

    @pytest.mark.parametrize("basis", [[], ["--basis", "cosine:8"]])
    def test_start_filter_outside_the_box_is_rescaled(self, capsys, tmp_path, basis):
        # The optimizer scales every start to its box, so a transmittance
        # file in percent designs as the same file in fractions.
        lam = DEFAULT_GRID.wavelengths
        trans = 0.3 + 0.6 * np.exp(-0.5 * ((lam - 520.0) / 60.0) ** 2)
        payloads = []
        for scale in (100.0, 1.0):
            fpath = tmp_path / f"start_{scale:g}.csv"
            fpath.write_text(format_spectral_csv(lam, trans * scale, ("transmittance",)),
                             encoding="utf-8")
            code = main(["optimize", "--method", "newton", "--filter", str(fpath),
                         "--json", *basis])
            assert code == 0
            payloads.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
            assert payloads[-1]["termination"].startswith("converged")
        percent, fraction = payloads
        for key in ("initial_vora", "final_vora"):
            assert abs(percent[key] - fraction[key]) <= 1e-12
        # A zero entry is still no filter.
        fpath = tmp_path / "zero.csv"
        trans[5] = 0.0
        fpath.write_text(format_spectral_csv(lam, trans, ("transmittance",)),
                         encoding="utf-8")
        code = main(["optimize", "--filter", str(fpath), *basis])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "strictly positive" in captured.err

    def test_initial_filter_roundtrip(self, capsys, tmp_path):
        lam = DEFAULT_GRID.wavelengths
        start = np.full(31, 0.75)
        fpath = tmp_path / "start.csv"
        fpath.write_text(format_spectral_csv(lam, start, ("transmittance",)),
                         encoding="utf-8")
        code = main(["optimize", "--filter", str(fpath), "--max-iters", "5",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["iterations"] <= 5


class TestCheck:
    def test_zero_trials_is_vacuous_pass(self, capsys):
        code = main(["check", "--trials", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identity" in out.splitlines()[0]

    @pytest.mark.parametrize("flags", [[], ["--grid", "400:1:301", "--trials", "1"]],
                             ids=["20-trials", "n301"])
    def test_passes_at_the_default_trials_and_on_the_1nm_grid(self, capsys, flags):
        code = main(["check", *flags, "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["checks"]) == 7

    def test_gradient_oracle_stays_accurate_at_n601(self, capsys):
        # The oracle's error at its default step is 1.7e-8 here; 1.8e-7 with
        # a round-off-sized step of 1e-6.
        code = main(["check", "--grid", "400:0.5:601", "--trials", "1", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        errors = {c["identity"]: c["max_error"] for c in payload["checks"]}
        assert code == 0
        assert payload["pass"] is True
        assert errors["gradient_vs_fd"] < 5e-8

    @pytest.mark.parametrize("grid", ["400:10:31", "400:0.5:601"])
    @pytest.mark.parametrize("sabotage, failing", [
        (sabotage_gradient, {"gradient_vs_fd", "orthogonality", "hessian_gradient"}),
        (sabotage_newton_step, {"newton_closed_form"}),
    ], ids=["gradient", "newton_step"])
    def test_negative_controls_exit_4(self, monkeypatch, capsys, grid, sabotage, failing):
        sabotage(monkeypatch)
        code = main(["check", "--grid", grid, "--trials", "1", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 4
        assert failing <= {c["identity"] for c in payload["checks"] if not c["pass"]}

    def test_identities_form_no_n_by_n_identity_or_solve(self, monkeypatch):
        # The closed form is checked by its residual and the quadratic forms
        # by f.h0 f: only the 9 x 9 Woodbury capacitance is solved, and only
        # the FD oracle's probes f +- h e_i are rows of an n-wide identity.
        grid = WavelengthGrid(400.0, 5.0, 61)
        camera = _load_sensors(None, DEFAULT_CAMERA_FILE, grid)
        observer = _load_sensors(None, DEFAULT_OBSERVER_FILE, grid)
        calls = []

        def recording(name, call):
            def record(*args, **kwargs):
                shape = np.shape(args[0]) if name == "solve" else args[:2]
                calls.append((sys._getframe(1).f_code.co_name, name, shape))
                return call(*args, **kwargs)
            return record

        monkeypatch.setattr(np, "eye", recording("eye", np.eye))
        monkeypatch.setattr(np.linalg, "solve", recording("solve", np.linalg.solve))
        errors = run_identity_checks(camera, observer, 0, 1)
        assert all(errors[name] < tol for name, tol in CHECK_TOLERANCES.items())
        assert {(caller, name) for caller, name, shape in calls
                if grid.count in shape} == {("fd_gradient", "eye")}
        assert ("_woodbury", "solve", (9, 9)) in calls

    def test_negative_trials_exits_2(self, capsys, camera, observer):
        code = main(["check", "--trials", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "trials" in err
        assert main(["check", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"
        # The library call holds the rule: a negative count or a bool is no
        # number of trials, and no seed.
        for bad in (-1, True):
            with pytest.raises(VoraFilterError, match="trials"):
                run_identity_checks(camera, observer, 0, bad)
            with pytest.raises(VoraFilterError, match="seed"):
                run_identity_checks(camera, observer, bad, 1)


class TestDataEnvVar:
    def test_bundled_camera_is_gaussian_camera(self, camera):
        # So a library test on gaussian_camera() tests the CLI's default camera.
        bundled = _load_sensors(None, DEFAULT_CAMERA_FILE, DEFAULT_GRID)
        assert np.array_equal(bundled.responses, camera.responses)

    def test_fixture_directory_override(self, capsys, tmp_path, monkeypatch):
        import importlib.resources
        data = importlib.resources.files("vorafilter").joinpath("data")
        for name in ("cie1931_2deg_5nm.csv", "gaussian_camera_10nm.csv"):
            shutil.copy(str(data.joinpath(name)), tmp_path / name)
        monkeypatch.setenv("VORA_FILTER_DATA", str(tmp_path))
        code = main(["evaluate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vora_value:" in out

    def test_broken_override_surfaces_as_input_error(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("VORA_FILTER_DATA", str(tmp_path / "nope"))
        code = main(["evaluate"])
        assert code == 2
        # The label is the file read, not the bundled one it stands in for.
        missing = tmp_path / "nope" / DEFAULT_CAMERA_FILE
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def _camera_text(seed: int) -> str:
    responses = make_random_camera(seed).responses
    return format_spectral_csv(DEFAULT_GRID.wavelengths, responses, ("r", "g", "b"))


class TestCaches:
    """A process builds one parser and keeps the parsed tables of the last
    few (text, grid) pairs: never stale, and never shared between files or
    grids that differ."""

    @staticmethod
    def evaluate(capsys, *argv) -> float:
        assert main(["evaluate", "--json", *argv]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])["vora_value"]

    def test_a_file_rewritten_in_place_is_read_again(self, capsys, tmp_path, observer):
        path = tmp_path / "camera.csv"
        values = []
        for seed in (1001, 1003, 1001):
            path.write_text(_camera_text(seed), encoding="utf-8")
            values.append(self.evaluate(capsys, "--camera", str(path)))
            assert values[-1] == vora_value(load_sensor_set(path), observer).raw
        assert values[0] != values[1] and values[0] == values[2]

    def test_each_data_directory_is_read_as_its_own(self, capsys, tmp_path, monkeypatch):
        values = []
        for seed in (1001, 1003, 1001):
            data = tmp_path / str(seed)
            data.mkdir(exist_ok=True)
            (data / DEFAULT_CAMERA_FILE).write_text(_camera_text(seed), encoding="utf-8")
            (data / DEFAULT_OBSERVER_FILE).write_text(cie_csv_text(), encoding="utf-8")
            monkeypatch.setenv("VORA_FILTER_DATA", str(data))
            values.append(self.evaluate(capsys))
            assert values[-1] == vora_value(load_sensor_set(data / DEFAULT_CAMERA_FILE),
                                            load_sensor_set(data / DEFAULT_OBSERVER_FILE)).raw
        assert values[0] != values[1] and values[0] == values[2]

    def test_one_file_on_two_grids(self, cie_path):
        for grid in (DEFAULT_GRID, WavelengthGrid(400.0, 5.0, 61), DEFAULT_GRID):
            loaded = _load_sensors(str(cie_path), DEFAULT_OBSERVER_FILE, grid)
            expected = load_sensor_set(cie_path, grid)
            assert loaded.grid == grid
            assert np.array_equal(loaded.responses, expected.responses)

    def test_a_file_turned_malformed_exits_2_with_its_parse_error(self, capsys, tmp_path):
        path = tmp_path / "camera.csv"
        path.write_text(_camera_text(1001), encoding="utf-8")
        good = self.evaluate(capsys, "--camera", str(path))
        bad = "wavelength,r,g,b\n400,1,2\n"
        with pytest.raises(VoraFilterError) as parse_error:
            parse_spectral_csv(bad, expected_channels=3)
        path.write_text(bad, encoding="utf-8")
        # A failure is never kept: each call reads and fails again.
        for _ in range(2):
            assert main(["evaluate", "--camera", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {path}: {parse_error.value}\n")
        path.write_text(_camera_text(1001), encoding="utf-8")
        assert self.evaluate(capsys, "--camera", str(path)) == good

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        assert main(["check", "--trials", "0"]) == 0
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(parser, *args, **kwargs):
            added.append(args)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        for argv in (["check", "--trials", "0"], ["evaluate"], ["optimize", "--max-iters", "1"]):
            assert main(argv) == 0
        assert added == []
        assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [["evaluate", "--json"], ["optimize", "--basis", "identity:8"],
                                  ["check", "--trials", "1", "--json"],
                                  ["optimize", "--method", "newton", "--json"]])
def test_module_entry_point_is_main(capsys, argv):
    # ``python -m vorafilter.cli`` prints what main prints and exits with its
    # code. The subprocess starts cold; both calls in this process after it
    # run on the process's one parser and its kept tables.
    import vorafilter
    src = str(Path(vorafilter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-m", "vorafilter.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
