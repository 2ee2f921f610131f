"""Optimizer behavior: steps, termination, monotonicity, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_random_filter
from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    NoAscent,
    OptimizerConfig,
    SensorSet,
    SingularSystem,
    gradient,
    hessian,
    make_basis,
    newton_step,
    optimize,
    project_to_box,
    vora_value,
)

N = DEFAULT_GRID.count


def colorimetric_camera(observer) -> SensorSet:
    t = np.array([[0.3, 0.1, 0.0], [0.2, 0.9, 0.05], [0.01, 0.2, 1.1]])
    return SensorSet(grid=DEFAULT_GRID, responses=observer.responses @ t)


class TestProjectToBox:
    def test_clamps_both_sides(self):
        out = project_to_box(np.array([1.2, 0.5, -0.1]), 1e-4, 1.0)
        assert out.tolist() == [1.0, 0.5, 1e-4]

    def test_in_box_unchanged(self):
        values = np.array([0.2, 0.9, 1e-4])
        assert np.array_equal(project_to_box(values, 1e-4, 1.0), values)

    def test_all_negative_goes_to_floor(self):
        out = project_to_box(np.array([-1.0, -2.0, -0.5]), 1e-4, 1.0)
        assert np.array_equal(out, np.full(3, 1e-4))


class TestNewtonStep:
    def test_matches_closed_form(self, camera, observer):
        alpha = 1e-4
        for seed in (0, 1, 2):
            filt = make_random_filter(seed)
            f = filt.transmittance
            step = newton_step(camera, observer, filt, alpha)
            h0 = hessian(camera, observer, filt, alpha=0.0).matrix
            closed = np.linalg.solve(h0 + alpha * np.eye(N),
                                     (h0 - alpha * np.eye(N)) @ f)
            assert np.linalg.norm(step - closed) / np.linalg.norm(step) < 1e-8

    def test_degenerates_to_filter_direction_as_alpha_vanishes(self, camera, observer):
        filt = make_random_filter(3)
        f = filt.transmittance
        step = newton_step(camera, observer, filt, alpha=1e-12)
        cos = float(step @ f / (np.linalg.norm(step) * np.linalg.norm(f)))
        assert cos > 1.0 - 1e-4

    def test_at_colorimetric_camera(self, observer):
        cam = colorimetric_camera(observer)
        filt = FilterSpectrum.ones(DEFAULT_GRID)
        alpha = 1e-4
        g = gradient(cam, observer, filt).values
        assert np.max(np.abs(g)) < 1e-10
        step = newton_step(cam, observer, filt, alpha)
        h0 = hessian(cam, observer, filt, alpha=0.0).matrix
        expected = np.linalg.solve(h0 + alpha * np.eye(N),
                                   -alpha * filt.transmittance)
        assert np.max(np.abs(step - expected)) < 1e-8

    def test_requires_positive_alpha(self, camera, observer):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                newton_step(camera, observer, FilterSpectrum.ones(DEFAULT_GRID), bad)


class TestSingularNewtonSystem:
    """With ``H + alpha I = diag(d) + U U^T`` exactly zero the Newton system
    has no solution."""

    ALPHA = 1e-4

    @pytest.fixture
    def singular(self, monkeypatch):
        import vorafilter.calculus as calculus
        calls = []

        def zero_factors(w, v, f, alpha):
            calls.append(f.size)
            return np.zeros(f.size), np.zeros((f.size, 9))

        monkeypatch.setattr(calculus, "_hessian_factors", zero_factors)
        return calls

    def test_newton_step_raises(self, singular, camera, observer):
        with pytest.raises(SingularSystem):
            newton_step(camera, observer, make_random_filter(4), self.ALPHA)
        assert singular == [N]

    @pytest.mark.parametrize("basis", [None, "cosine"])
    def test_optimizer_falls_back_to_the_gradient(self, singular, camera,
                                                  observer, basis):
        cfg = OptimizerConfig(
            method="newton", alpha=self.ALPHA, max_iters=30,
            basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
        report = optimize(camera, observer, cfg)
        voras = [r.vora for r in report.iterations]
        assert len(voras) > 2
        assert all(b > a for a, b in zip(voras, voras[1:]))
        # Every accepted step tried the singular Newton system first.
        assert len(singular) >= report.accepted_steps


class TestWoodburyFallback:
    """A Woodbury solve that cannot be trusted is redone densely."""

    def test_zero_in_d_gives_the_dense_solve(self, monkeypatch, camera, observer):
        import vorafilter.calculus as calculus
        real_factors = calculus._hessian_factors
        alpha = 1e-4

        def zero_pivot(w, v, f, alpha):
            d, u = real_factors(w, v, f, alpha)
            d[5] = 0.0  # D^-1 is not finite, diag(d) + U U^T stays nonsingular
            return d, u

        monkeypatch.setattr(calculus, "_hessian_factors", zero_pivot)
        filt = make_random_filter(5)
        f = filt.transmittance
        step = newton_step(camera, observer, filt, alpha)

        w = calculus.orthonormal_columns(f[:, None] * camera.responses)
        d, u = zero_pivot(w, calculus.orthonormal_columns(observer.responses), f, alpha)
        operator = np.diag(d) + u @ u.T
        assert np.linalg.cond(operator) < 1e12
        rhs = -(gradient(camera, observer, filt).values + alpha * f)
        assert np.array_equal(step, np.linalg.solve(operator, rhs))


class TestOptimizeColorimetric:
    def test_terminates_immediately_at_global_optimum(self, observer):
        cam = colorimetric_camera(observer)
        report = optimize(cam, observer, OptimizerConfig(method="grad"))
        assert report.termination == "converged_grad"
        assert len(report.iterations) <= 2
        assert abs(report.final_vora - 1.0) < 1e-10
        assert np.max(np.abs(report.final_filter.transmittance - 1.0)) < 1e-12


class TestOptimizeEfficacy:
    def test_gradient_method_improves(self, pinned_runs):
        report = pinned_runs["grad"]
        assert report.final_vora - report.initial_vora >= 1e-4

    def test_newton_method_improves(self, pinned_runs):
        report = pinned_runs["newton"]
        assert report.final_vora - report.initial_vora >= 1e-4

    def test_traces_are_monotone(self, pinned_runs):
        for report in pinned_runs.values():
            voras = [row.vora for row in report.iterations]
            assert all(b >= a - 1e-14 for a, b in zip(voras, voras[1:]))

    def test_newton_reaches_gradient_plateau_in_fifth_of_iterations(self, pinned_runs):
        grad_report = pinned_runs["grad"]
        newton_report = pinned_runs["newton"]
        target = grad_report.final_vora - 1e-9
        crossing = next((row.iteration for row in newton_report.iterations
                         if row.vora >= target), None)
        assert crossing is not None, "newton never reached the gradient plateau"
        assert crossing <= grad_report.accepted_steps / 5
        assert newton_report.final_vora >= target

    def test_iterates_stay_feasible(self, pinned_runs):
        for report in pinned_runs.values():
            filt = report.final_filter.transmittance
            assert filt.min() >= 1e-4
            assert filt.max() <= 1.0


class TestScaleGauge:
    def test_init_scale_does_not_change_the_answer(self, camera, observer):
        cfg = OptimizerConfig(method="grad", max_iters=300)
        base = optimize(camera, observer, cfg)
        halved = optimize(camera, observer, cfg,
                          initial_filter=FilterSpectrum(
                              grid=DEFAULT_GRID,
                              transmittance=np.full(N, 0.5)))
        diff = np.max(np.abs(base.normalized_filter - halved.normalized_filter))
        assert diff < 1e-6

    def test_normalized_filter_peaks_at_one(self, pinned_runs):
        for report in pinned_runs.values():
            assert report.normalized_filter.max() == 1.0


class TestDeterminism:
    @staticmethod
    def _signature(report):
        rows = tuple((r.iteration, f"{r.vora:.17g}", f"{r.mu:.17g}",
                      f"{r.step_len:.17g}", f"{r.grad_inf_norm:.17g}",
                      r.backtracks) for r in report.iterations)
        filt = tuple(f"{x:.17g}" for x in report.final_filter.transmittance)
        return (rows, filt, report.termination,
                f"{report.initial_vora:.17g}", f"{report.final_vora:.17g}")

    def test_identical_config_identical_report(self, camera, observer):
        cfg = OptimizerConfig(method="newton", init="random", seed=123,
                              max_iters=40)
        first = self._signature(optimize(camera, observer, cfg))
        second = self._signature(optimize(camera, observer, cfg))
        assert first == second

    def test_seed_changes_random_init(self, camera, observer):
        a = optimize(camera, observer,
                     OptimizerConfig(init="random", seed=1, max_iters=1))
        b = optimize(camera, observer,
                     OptimizerConfig(init="random", seed=2, max_iters=1))
        assert not np.array_equal(a.final_filter.transmittance,
                                  b.final_filter.transmittance)


class TestNewtonStepAlgebraAlongRun:
    def test_closed_form_agrees_at_logged_iterates(self, camera, observer):
        alpha = 1e-4
        for k in range(1, 7):
            cfg = OptimizerConfig(method="newton", alpha=alpha, max_iters=k)
            filt = optimize(camera, observer, cfg).final_filter
            f = filt.transmittance
            step = newton_step(camera, observer, filt, alpha)
            h0 = hessian(camera, observer, filt, alpha=0.0).matrix
            closed = np.linalg.solve(h0 + alpha * np.eye(N),
                                     (h0 - alpha * np.eye(N)) @ f)
            assert np.linalg.norm(step - closed) / np.linalg.norm(step) < 1e-8


class TestBasisMode:
    def test_cosine_run_improves_and_reconstructs(self, camera, observer):
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        cfg = OptimizerConfig(method="grad", basis=basis, max_iters=400)
        report = optimize(camera, observer, cfg)
        assert report.final_vora > report.initial_vora + 1e-4
        assert report.coefficients is not None
        rebuilt = basis.basis @ report.coefficients
        assert np.max(np.abs(rebuilt - report.final_filter.transmittance)) < 1e-12

    def test_newton_in_basis_improves(self, camera, observer):
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        cfg = OptimizerConfig(method="newton", basis=basis, max_iters=200)
        report = optimize(camera, observer, cfg)
        assert report.final_vora > report.initial_vora + 1e-4
        voras = [row.vora for row in report.iterations]
        assert all(b >= a for a, b in zip(voras, voras[1:]))


class TestTermination:
    def test_no_ascent_at_exhausted_start(self, observer):
        # at the global optimum the gradient is zero to machine precision;
        # with the gradient stop disabled, iteration 1 cannot improve
        cam = colorimetric_camera(observer)
        cfg = OptimizerConfig(method="grad", tol_grad=0.0)
        with pytest.raises(NoAscent):
            optimize(cam, observer, cfg)

    def test_stalled_on_basis_feasibility_wall(self, camera, observer):
        # a two-atom smooth filter driven against a high floor: once the
        # iterate hugs tau_min, every step along the ascent direction leaves
        # the box and the line search gives up
        basis = make_basis("cosine", 2, DEFAULT_GRID)
        cfg = OptimizerConfig(method="grad", basis=basis, tau_min=0.5,
                              tol_grad=0.0, tol_obj=0.0, max_iters=3000)
        report = optimize(camera, observer, cfg)
        assert report.termination == "stalled"
        assert report.accepted_steps >= 1
        assert report.final_vora > report.initial_vora
        assert abs(report.final_filter.transmittance.min() - 0.5) < 1e-9

    def test_max_iters_label(self, camera, observer):
        report = optimize(camera, observer,
                          OptimizerConfig(method="grad", max_iters=5))
        assert report.termination == "max_iters"
        assert report.accepted_steps == 5


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="sgd")
        with pytest.raises(ValueError):
            OptimizerConfig(tau_min=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tau_min=0.5, tau_max=0.4)
        with pytest.raises(ValueError):
            OptimizerConfig(tau_max=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(method="newton", alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(init="warm")
        for bad in (np.nan, np.inf):
            for field in ("alpha", "tol_obj", "tol_grad"):
                with pytest.raises(ValueError, match=field):
                    OptimizerConfig(**{field: bad})
            with pytest.raises(ValueError):
                OptimizerConfig(method="newton", alpha=bad)


class TestBasisRandomInit:
    def test_random_init_in_basis_mode_is_feasible(self, camera, observer):
        basis = make_basis("cosine", 6, DEFAULT_GRID)
        cfg = OptimizerConfig(method="grad", basis=basis, init="random",
                              seed=11, max_iters=50)
        report = optimize(camera, observer, cfg)
        filt = report.final_filter.transmittance
        assert filt.min() >= cfg.tau_min
        assert filt.max() <= cfg.tau_max
        assert report.final_vora >= report.initial_vora


class TestRandomInstances:
    def test_both_methods_improve_on_randomized_cameras(self, observer):
        from conftest import make_random_camera
        for seed in range(5):
            cam = make_random_camera(500 + seed)
            grad_rep = optimize(cam, observer,
                                OptimizerConfig(method="grad", max_iters=300))
            newton_rep = optimize(cam, observer,
                                  OptimizerConfig(method="newton",
                                                  max_iters=100))
            for rep in (grad_rep, newton_rep):
                assert rep.final_vora >= rep.initial_vora
                voras = [r.vora for r in rep.iterations]
                assert all(b >= a for a, b in zip(voras, voras[1:]))
            assert grad_rep.final_vora > grad_rep.initial_vora + 1e-6
            assert newton_rep.final_vora > newton_rep.initial_vora + 1e-6


class TestGridMismatch:
    def test_mixed_grids_rejected(self, camera, observer):
        from vorafilter import GridMismatch, WavelengthGrid
        other = WavelengthGrid(400.0, 10.0, 30)
        filt = FilterSpectrum(grid=other, transmittance=np.ones(30))
        with pytest.raises(GridMismatch):
            newton_step(camera, observer, filt, 1e-4)
        with pytest.raises(GridMismatch):
            gradient(camera, observer, filt)
        with pytest.raises(GridMismatch):
            optimize(camera, observer, initial_filter=filt)
