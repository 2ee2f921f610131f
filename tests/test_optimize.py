"""Optimizer behavior: steps, termination, monotonicity, determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import warnings

import numpy as np
import pytest

from conftest import cie_observer, make_random_filter
from oracles import regularized_objective
from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    NonPositiveFilter,
    OptimizerConfig,
    SensorSet,
    SingularSystem,
    gaussian_camera,
    gradient,
    gradient_in_basis,
    hessian,
    make_basis,
    newton_step,
    optimize,
)
from vorafilter.vora import _filtered_basis, _vora_of_bases
from vorafilter.calculus import _dense_operator, _hessian_diagonal, _projected_observer
from vorafilter.optimize import (
    _RADIUS_INIT,
    _RADIUS_MAX,
    IterationRecord,
    _cauchy_step,
    _cut_back,
    _model_peak,
    _nnls,
    _preconditioner,
    _RunState,
    _truncated_cg,
)

N = DEFAULT_GRID.count


def colorimetric_camera(observer) -> SensorSet:
    t = np.array([[0.3, 0.1, 0.0], [0.2, 0.9, 0.05], [0.01, 0.2, 1.1]])
    return SensorSet(grid=DEFAULT_GRID, responses=observer.responses @ t)


class TestNewtonStep:
    def test_at_colorimetric_camera(self, observer):
        cam = colorimetric_camera(observer)
        filt = FilterSpectrum.ones(DEFAULT_GRID)
        alpha = 1e-4
        g = gradient(cam, observer, filt)
        assert np.max(np.abs(g)) < 1e-10
        step = newton_step(cam, observer, filt, alpha)
        h0 = hessian(cam, observer, filt, alpha=0.0)
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
        import importlib

        import vorafilter.calculus as calculus
        # The package's ``optimize`` function shadows the submodule.
        optimize_module = importlib.import_module("vorafilter.optimize")
        calls = []
        real_system = calculus._factors

        def zero_factors(w, v, r, f):
            calls.append(f.size)
            return np.zeros(f.size), np.zeros((f.size, 9))

        def zero_system(camera, observer, f, alpha):
            # newton_step adds alpha to the kernel's d, so its system is
            # zeroed after that.
            r = real_system(camera, observer, f, alpha)[0]
            return (r, *zero_factors(None, None, r, f))

        monkeypatch.setattr(calculus, "_factors", zero_system)
        monkeypatch.setattr(optimize_module, "_hessian_factors", zero_factors)
        return calls

    def test_newton_step_raises(self, singular, camera, observer):
        with pytest.raises(SingularSystem):
            newton_step(camera, observer, make_random_filter(4), self.ALPHA)
        assert singular == [N]

    @pytest.mark.parametrize("basis", [None, "cosine"])
    def test_optimizer_falls_back_to_the_gradient(self, singular, camera,
                                                  observer, basis):
        """With a zero model Hessian the trust step is the Cauchy step: the
        gradient over the free coordinates (for a filter, the box-projected
        gradient), scaled to the radius. The run still climbs."""
        cfg = OptimizerConfig(
            method="newton", alpha=self.ALPHA, max_iters=30,
            basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
        report = optimize(camera, observer, cfg)
        voras = [r.vora for r in report.iterations]
        assert report.termination == "max_iters"
        assert all(b > a for a, b in zip(voras, voras[1:]))
        # One factorization per iteration, however many radii it tried.
        assert len(singular) == report.accepted_steps == cfg.max_iters

        state = _RunState(camera, observer, cfg, None)
        grad, solve = state.trust_subproblem()
        if basis is not None:  # the chart is c-perp
            grad = grad - state.x * (state.x @ grad) / (state.x @ state.x)
        radius = 1e-2 * np.linalg.norm(state.x)
        step, predicted = solve(radius)
        cauchy = radius * grad / np.linalg.norm(grad)
        assert np.max(np.abs(step - cauchy)) <= 1e-12 * np.max(np.abs(cauchy))
        assert predicted == pytest.approx(float(grad @ step), rel=1e-12)


class TestWoodburyFallback:
    """A Woodbury solve that cannot be trusted is redone densely."""

    def test_zero_in_d_gives_the_dense_solve(self, monkeypatch, camera, observer):
        import vorafilter.calculus as calculus
        real_factors = calculus._hessian_factors
        alpha = 1e-4

        def zero_pivot(w, v, r, f):
            d, u = real_factors(w, v, r, f)
            # Zero once alpha is added: D^-1 is not finite, diag(d) + U U^T
            # stays nonsingular.
            d[5] = -alpha
            return d, u

        monkeypatch.setattr(calculus, "_hessian_factors", zero_pivot)
        filt = make_random_filter(5)
        f = filt.transmittance
        step = newton_step(camera, observer, filt, alpha)

        w = calculus.orthonormal_columns(f[:, None] * camera.responses)
        v = calculus.orthonormal_columns(observer.responses)
        d, u = zero_pivot(w, v, calculus._projected_observer(w, v), f)
        operator = np.diag(d + alpha) + u @ u.T
        assert np.linalg.cond(operator) < 1e12
        rhs = -(gradient(camera, observer, filt) + alpha * f)
        assert np.array_equal(step, np.linalg.solve(operator, rhs))

    def test_singular_capacitance_gives_the_dense_solve(self, monkeypatch, camera, observer):
        import vorafilter.calculus as calculus

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(calculus, "_woodbury", singular)
        filt = make_random_filter(5)
        alpha = 1e-4
        rhs = -(gradient(camera, observer, filt) + alpha * filt.transmittance)
        assert np.array_equal(newton_step(camera, observer, filt, alpha),
                              np.linalg.solve(hessian(camera, observer, filt, alpha), rhs))


class TestTrustRegionNewton:
    """Newton on the quotient by the scale gauge, in a trust region."""

    def test_interior_step_is_the_newton_step_in_the_chart(self, monkeypatch, camera,
                                                           observer):
        # Near the optimum the value's Hessian is negative definite in the
        # scale chart (all coordinates but the peak), so a large radius
        # leaves the Newton step of the value there: H_FF s_F = -g_F, one
        # Woodbury solve without CG.
        optimum = optimize(camera, observer, OptimizerConfig(method="newton"))

        def forbidden(*args):
            raise AssertionError("an interior step ran CG")

        monkeypatch.setattr(importlib.import_module("vorafilter.optimize"),
                            "_truncated_cg", forbidden)
        rng = np.random.default_rng(3)
        f = optimum.final_filter.transmittance * (1.0 + 0.01 * rng.standard_normal(N))
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=f / f.max())
        state = _RunState(camera, observer, OptimizerConfig(method="newton"), filt)
        g = gradient(camera, observer, filt)
        step, predicted = state.trust_subproblem()[1](10.0 * np.linalg.norm(state.f))
        free = np.arange(N) != np.argmax(state.f)
        h = hessian(camera, observer, filt)
        newton = np.zeros(N)
        newton[free] = np.linalg.solve(h[np.ix_(free, free)], -g[free])
        assert np.linalg.norm(newton) < np.linalg.norm(state.f)
        assert np.linalg.norm(step - newton) <= 1e-10 * np.linalg.norm(newton)
        assert predicted == pytest.approx(0.5 * float(g @ newton), rel=1e-9)

    def test_model_peak_exists_where_the_model_is_negative_definite(self):
        # With d < 0, H = diag(d) + U U^T is negative definite exactly when
        # the capacitance I + U^T D^-1 U is positive definite, and the
        # model's peak is then -H^-1 g.
        rng = np.random.default_rng(0)
        outcomes = set()
        for _ in range(100):
            d = -rng.uniform(0.5, 2.0, 12)
            u = rng.uniform(0.1, 0.5) * rng.standard_normal((12, 9))
            g = rng.standard_normal(12)
            dense = _dense_operator(d, u)
            definite = bool(np.linalg.eigvalsh(dense).max() < 0.0)
            peak = _model_peak(d, u, g)
            assert (peak is not None) == definite
            outcomes.add(definite)
            if definite:
                newton = np.linalg.solve(dense, -g)
                assert np.linalg.norm(peak - newton) <= 1e-10 * np.linalg.norm(newton)
        assert outcomes == {True, False}
        # A zero in d leaves a nonnegative diagonal entry of H.
        d[0] = 0.0
        assert _model_peak(d, 1e-3 * u, g) is None

    def test_indefinite_model_takes_truncated_cg(self, monkeypatch, camera, observer):
        # At the unit filter H has 2 positive eigenvalues, so with the peak
        # held at least one is left (interlacing): the model has no peak,
        # and the first step is CG's, on the boundary of the region.
        steps = []

        def recorded(*args):
            steps.append(_truncated_cg(*args))
            return steps[-1]

        monkeypatch.setattr(importlib.import_module("vorafilter.optimize"),
                            "_truncated_cg", recorded)
        state = _RunState(camera, observer, OptimizerConfig(method="newton"), None)
        h = hessian(camera, observer, FilterSpectrum(grid=DEFAULT_GRID,
                                                     transmittance=state.f))
        assert np.sum(np.linalg.eigvalsh(h) > 0.0) == 2
        radius = _RADIUS_INIT * np.linalg.norm(state.f)
        state.trust_subproblem()[1](radius)
        assert len(steps) == 1
        assert np.linalg.norm(steps[0]) == pytest.approx(radius, rel=1e-12)

    def test_subproblem_work_does_not_grow_with_n(self, monkeypatch):
        # CG's products per solve grow with n, up to 62 at n = 601. Interior
        # steps are one Woodbury solve instead, so only the boundary steps
        # of a run's first iterations take CG products.
        products = []

        def counted(hess, *args):
            def product(p):
                products.append(None)
                return hess(p)
            return _truncated_cg(product, *args)

        monkeypatch.setattr(importlib.import_module("vorafilter.optimize"),
                            "_truncated_cg", counted)
        for n in (31, 301, 601):
            observer = cie_observer(n)
            products.clear()
            report = optimize(gaussian_camera(observer.grid), observer,
                              OptimizerConfig(method="newton"))
            assert report.termination == "converged_grad", n
            assert len(products) <= 40, n

    def test_truncated_cg_solves_the_trust_region_model(self):
        grad = np.array([1.0, 1.0])
        ones = np.ones(2)
        # Concave: the maximizer -H^-1 g when it fits, else the boundary.
        concave = np.array([-1.0, -2.0]).__mul__
        assert np.allclose(_truncated_cg(concave, grad, ones, 10.0), [1.0, 0.5],
                           rtol=1e-12)
        assert np.linalg.norm(_truncated_cg(concave, grad, ones, 0.5)) == pytest.approx(0.5)
        # Indefinite: unbounded above, so the step always reaches the boundary.
        saddle = np.array([-2.0, 1.0]).__mul__
        assert np.linalg.norm(_truncated_cg(saddle, grad, ones, 10.0)) == pytest.approx(10.0)

    def test_radius_follows_the_gain_ratio(self, camera, observer):
        report = optimize(camera, observer, OptimizerConfig(method="newton"))
        steps = [row.step_len for row in report.iterations[1:]]
        # H is indefinite at the unit filter: the first step fills the radius.
        assert steps[0] == pytest.approx(_RADIUS_INIT * np.sqrt(N), rel=1e-12)
        assert max(steps) > steps[0]  # grown after good ratios
        random_start = optimize(camera, observer,
                                OptimizerConfig(method="newton", init="random", seed=2))
        assert any(row.backtracks for row in random_start.iterations)  # and cut

    @pytest.mark.parametrize("basis", [None, "cosine"])
    def test_trust_region_commits_the_step_it_takes(self, camera, observer, basis):
        # The accepted iterate, its filter, its basis and its value are the
        # state's, and the gain is the value's rise.
        cfg = OptimizerConfig(method="newton",
                              basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
        state = _RunState(camera, observer, cfg, None)
        before = state.value
        gain, step_len, rejected = state.trust_region(state.trust_subproblem()[1])
        assert gain > 0.0 and step_len > 0.0 and rejected == 0
        assert state.value - before == gain
        f = state.x if basis is None else state.basis @ state.x
        assert state.f.tobytes() == f.tobytes()
        assert state.w.tobytes() == _filtered_basis(camera, state.f).tobytes()
        assert state.value == _vora_of_bases(state.w, state.v)

    def test_trust_region_without_a_step_leaves_the_state(self, camera, observer):
        state = _RunState(camera, observer, OptimizerConfig(method="newton"), None)
        before = (state.x.copy(), state.f.copy(), state.w.copy(), state.value, state.radius)
        # A model that predicts no gain rejects every step untried.
        assert state.trust_region(lambda radius: (np.zeros_like(state.x), 0.0)) is None
        assert state.x.tobytes() == before[0].tobytes()
        assert state.f.tobytes() == before[1].tobytes()
        assert state.w.tobytes() == before[2].tobytes()
        assert (state.value, state.radius) == before[3:]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_converges_with_an_active_floor(self, observer, seed):
        # A high floor: at the optimum many components sit on tau_min and
        # several share the peak. Newton must still reach a stationary point,
        # at least as high as the gradient method's plateau.
        from conftest import make_random_camera
        camera = make_random_camera(1000 + seed)
        config = OptimizerConfig(method="newton", tau_min=0.3, init="random", seed=seed)
        report = optimize(camera, observer, config)
        plateau = optimize(camera, observer, OptimizerConfig(
            method="grad", tau_min=0.3, init="random", seed=seed)).final_vora
        assert report.termination == "converged_grad"
        assert report.accepted_steps <= 40
        assert report.final_filter.transmittance.min() == config.tau_min
        assert report.final_vora >= plateau

    def test_alpha_only_weights_the_reported_mu(self, camera, observer):
        # The step is taken on the value's model; alpha = 0 is a valid choice.
        runs = [optimize(camera, observer, OptimizerConfig(method="newton", alpha=a))
                for a in (0.0, 1e-4)]
        for a, b in zip(*(run.iterations for run in runs)):
            assert (a.vora, a.step_len, a.grad_inf_norm, a.backtracks) == (
                b.vora, b.step_len, b.grad_inf_norm, b.backtracks)
            assert a.mu == a.vora != b.mu
        assert len(runs[0].iterations) == len(runs[1].iterations)
        # The first and last rows report the paper's mu at the unit and the final filter.
        rows = runs[1].iterations
        for row, f in ((rows[0], np.ones(DEFAULT_GRID.count)),
                       (rows[-1], runs[1].final_filter.transmittance)):
            mu = regularized_objective(camera.responses, observer.responses, f, 1e-4)
            assert abs(row.mu - mu) <= 1e-14

    @pytest.mark.parametrize("n, seed, kind, k, race, method, steps", [
        pytest.param(*case, method, 40 if method == "newton" else grad_steps,
                     id="-".join(map(str, case)) + suffix)
        for method, suffix in (("newton", ""), ("grad", "-grad"))
        for *case, grad_steps in [
            (61, 1, "gaussian", 12, 0.9671412419705184, 500),
            (31, 1, "gaussian", 12, 0.9765124044734406, 900),
            (31, 9, "cosine", 8, 0.9336433124032374, 60),
        ]])
    def test_basis_mode_slides_along_the_wall(self, n, seed, kind, k,
                                              race, method, steps):
        # The optimum lies on the box wall: the filter touches tau_min, and
        # B^T g stays large there, so only the gradient projected past the
        # wall can vanish. ``race`` is where the Newton-vs-gradient race
        # stopped on these problems. The gradient method's diagonal model
        # holds the same wall pairs, in 408 / 700 / 40 steps.
        from conftest import make_random_camera
        observer = cie_observer(n)
        camera = make_random_camera(1000 + seed, observer.grid)
        basis = make_basis(kind, k, observer.grid)
        config = OptimizerConfig(method=method, basis=basis)
        report = optimize(camera, observer, config)
        if method == "newton":
            assert report.termination == "converged_grad"
        else:
            assert report.termination in ("converged_grad", "converged_obj")
        assert report.accepted_steps <= steps
        assert report.final_vora >= race
        assert report.final_filter.transmittance.min() <= config.tau_min + 2e-12
        assert np.max(np.abs(gradient_in_basis(camera, observer, basis,
                                               report.coefficients))) > 1e-4
        voras = [row.vora for row in report.iterations]
        assert all(b > a for a, b in zip(voras, voras[1:]))

    def test_value_resolved_to_rounding_ends_converged_obj(self, observer):
        # The projected gradient stops just above tol_grad: every further
        # step gains less than the value can resolve, so no trial improves
        # it, while the model promises less than tol_obj.
        from conftest import make_random_camera
        config = OptimizerConfig(method="newton",
                                 basis=make_basis("cosine", 8, DEFAULT_GRID))
        report = optimize(make_random_camera(1007), observer, config)
        assert report.termination == "converged_obj"
        assert config.tol_grad < report.iterations[-1].grad_inf_norm < 1e-7
        gains = np.diff([row.vora for row in report.iterations])
        assert np.any(gains[-3:] >= config.tol_obj)  # not three small gains in a row

    def test_wall_helpers(self):
        # The gap min(f + t u) - ratio max(f + t u) first closes where row 1
        # falls to ratio times row 2, and the binding rows come back with t.
        f, u = np.array([1.0, 0.5, 2.0]), np.array([0.0, -1.0, 1.0])
        t, i, j = _cut_back(f, u, 0.1)
        assert (i, j) == (1, 2) and t == pytest.approx(0.3 / 1.1, rel=1e-15)
        assert _cut_back(f, -u, 0.1) == (1.0, 0, 1)
        # Nonnegative least squares: the unconstrained fit (2, -1) moves to
        # the best fit with a zero second entry.
        a = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        b = a @ np.array([2.0, -1.0])
        assert np.allclose(_nnls(a, b), [1.5, 0.0], atol=1e-15)
        assert np.allclose(_nnls(a, a @ np.array([2.0, 1.0])), [2.0, 1.0], atol=1e-15)

    def test_default_alpha_converges(self, camera, observer):
        # The library and CLI default alpha = 1e-4 used to run into max_iters.
        report = optimize(camera, observer, OptimizerConfig(method="newton"))
        assert report.termination in ("converged_grad", "converged_obj")
        assert report.accepted_steps <= 100
        assert report.final_vora >= 0.99693617

    def test_random_starts_reach_the_same_optimum(self, camera, observer):
        finals = []
        for seed in range(60):
            report = optimize(camera, observer,
                              OptimizerConfig(method="newton", init="random", seed=seed))
            assert report.termination == "converged_grad", seed
            assert report.accepted_steps <= 40, seed
            finals.append(report.final_vora)
        assert max(finals) - min(finals) <= 1e-12

    def test_consistent_under_grid_refinement(self):
        finals = []
        for n in (31, 61, 301, 601):
            observer = cie_observer(n)
            report = optimize(gaussian_camera(observer.grid), observer,
                              OptimizerConfig(method="newton"))
            assert report.termination in ("converged_grad", "converged_obj"), n
            assert report.accepted_steps <= 40, n
            finals.append(report.final_vora)
        assert max(finals) - min(finals) <= 1e-5


def _report_digest(report) -> str:
    """SHA-256 over every field of every ``IterationRecord`` and the final
    filter, as little-endian float64 bytes."""
    digest = hashlib.sha256()
    digest.update(np.array([(row.iteration, row.vora, row.mu, row.step_len,
                             row.grad_inf_norm, row.backtracks)
                            for row in report.iterations], dtype="<f8").tobytes())
    digest.update(report.final_filter.transmittance.astype("<f8").tobytes())
    return digest.hexdigest()


def _pinned_run(method, camera, observer, basis, config):
    """A digest row's run; ``config`` may name a random camera by its seed."""
    from conftest import make_random_camera
    config = dict(config)
    if "camera" in config:
        camera = make_random_camera(config.pop("camera"))
    if basis is not None:
        config["basis"] = make_basis(*basis, DEFAULT_GRID)
    return optimize(camera, observer, OptimizerConfig(method=method, **config))


class TestSpectralModel:
    """``grad`` models with ``sigma D`` where the Barzilai-Borwein scalar
    ``sigma``, in the metric of ``D = _preconditioner(d)``, is negative, and
    with ``diag(d)`` otherwise."""

    @pytest.mark.parametrize("basis, first", [
        (None, IterationRecord(1, 0.9777918717600133, 0.9792343739478707,
                               0.5567764362830021, 0.01459787691427553, 0)),
        ("cosine", IterationRecord(1, 0.9771438320285304, 0.9783733145950738,
                                   0.1, 0.07980780055919826, 0)),
    ])
    def test_first_step_is_on_the_diagonal(self, camera, observer, basis, first):
        # No last step yet: the first iteration models with diag(d) at the
        # first radius, as the method did before it had a curvature scalar.
        # The records are pinned from that version, but for the filter's
        # step_len: the closed-form step to the radius rounds 1 ulp apart
        # from CG's boundary step.
        config = OptimizerConfig(
            method="grad", max_iters=1,
            basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
        report = optimize(camera, observer, config)
        start = IterationRecord(0, 0.9679766968226989, 0.969526696822699, 0.0,
                                first.grad_inf_norm, 0)
        assert report.iterations == (start, first)

    @pytest.mark.parametrize("curvature", [1.0, 0.0, -2.0])
    def test_curvature_scalar(self, camera, observer, curvature):
        # Plant a last step s with gradient change y = curvature * D s, so
        # that sigma = curvature. Unless it is negative the model stays
        # diag(d) at the first radius; a negative sigma gives the model
        # sigma D and the largest radius. Either way the step on a filter is
        # the model's maximizer along p = g / precond within the radius,
        # min(t*, radius / |p|) p with t* = g.p / -(p.h p), clipped to the box.
        config = OptimizerConfig(method="grad")
        filt = make_random_filter(11)
        plain = _RunState(camera, observer, config, filt)
        plain_solve = plain.trust_subproblem()[1]
        g = plain.previous[1]
        state = _RunState(camera, observer, config, filt)
        w = _filtered_basis(camera, state.f)
        d = _hessian_diagonal(_projected_observer(w, observer.basis), state.f)
        scale = _preconditioner(d)
        s = np.random.default_rng(4).standard_normal(N)
        state.previous = (state.x - s, g - curvature * scale * s)
        solve = state.trust_subproblem()[1]
        assert state.radius == (_RADIUS_MAX if curvature < 0.0 else _RADIUS_INIT)

        free = np.arange(N) != np.argmax(state.f)
        h = (curvature * scale if curvature < 0.0 else d)[free]
        precond = _preconditioner(h)
        p = g[free] / precond
        t_peak = (g[free] @ p) / -(p @ (h * p))
        f_norm = np.linalg.norm(state.f)
        radii = (1e-3 * f_norm, 0.1 * f_norm, 10.0 * f_norm)
        assert radii[0] / np.linalg.norm(p) < t_peak < radii[-1] / np.linalg.norm(p)
        for radius in radii:
            step, predicted = solve(radius)
            if curvature >= 0.0:
                for a, b in zip((step, predicted), plain_solve(radius)):
                    assert np.array_equal(a, b)
            expected = np.clip(min(t_peak, radius / np.linalg.norm(p)) * p,
                               config.tau_min - state.f[free],
                               config.tau_max - state.f[free])
            assert step[~free] == 0.0
            assert np.array_equal(step[free], expected)
            assert predicted == pytest.approx(
                g[free] @ expected + 0.5 * (expected @ (h * expected)), rel=1e-12)
            if curvature < 0.0 or radius == radii[0]:
                # On sigma D, preconditioned by |sigma D|, CG stops after one
                # iteration at the same step. On diag(d), where the smallest
                # radius binds before t*, CG's first iterate stops on the
                # boundary there, at the same step.
                cg = _truncated_cg(h.__mul__, g[free], precond, radius)
                assert np.allclose(step[free], np.clip(cg, config.tau_min - state.f[free],
                                                       config.tau_max - state.f[free]),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(cg)))

    def test_cauchy_step_without_negative_curvature(self):
        grad = np.array([3.0, 4.0])
        ones = np.ones(2)
        # No curvature along p: t* is infinite and the step reaches the radius.
        step = _cauchy_step(grad, np.zeros(2), ones)(2.0)
        assert np.allclose(step, [1.2, 1.6], rtol=1e-15)
        # A zero gradient gives the zero step, without dividing by |p| = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not _cauchy_step(np.zeros(2), -ones, ones)(1.0).any()

    @pytest.mark.parametrize("basis", [None, "cosine"])
    def test_grad_never_builds_the_low_rank_factor(self, monkeypatch, camera, observer,
                                                   basis):
        def forbidden(*args):
            raise AssertionError("grad built U")

        # The package's name ``optimize`` is the function, not the module.
        module = importlib.import_module("vorafilter.optimize")
        monkeypatch.setattr(module, "_hessian_factors", forbidden)
        config = OptimizerConfig(
            method="grad", max_iters=20,
            basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
        assert optimize(camera, observer, config).accepted_steps == 20

    @pytest.mark.parametrize("basis, config, digest", [
        (None, {},
         "5a37bcd1f354922f87d8e71f96cfbaa8b989722c1b7ff16fb580634f07596dc5"),
        (None, {"camera": 1001, "tau_min": 0.3, "init": "random", "seed": 5},
         "2e2d83094a8a12ecb0607426a0f74a7db20ecf44f0fdfa3e03e6b95899b860bd"),
        (("cosine", 8), {},
         "7bbd45776d689c273c38bc66b9e2e6b717835021f53ae9f19134179e21584aff"),
        (("cosine", 8), {"camera": 1001, "tau_min": 0.3, "init": "random", "seed": 5},
         "d88c86abc3e3a680582f8a2abe5c2fca26a5493c6dc7b7d93a15c7882daae91f"),
        (("gaussian", 12), {},
         "8198118f85b920248dd9a3d37ac342bf54e05bf6fd318cd97f5eaed96cb2c15f"),
        (("gaussian", 12), {"camera": 1001, "tau_min": 0.3, "init": "random", "seed": 5},
         "9d0c9ec8a06ebc122da19023f956547e213ec519478c04839198ebd32b3225b5"),
    ])
    def test_newton_is_unchanged(self, camera, observer, basis, config, digest):
        # The digests were pinned before grad had a curvature scalar: the
        # Newton model does not read it. The two for a filter were pinned
        # again when interior steps became one Woodbury solve. They hold for
        # the float64 rounding of x86-64 numpy with OpenBLAS; another BLAS
        # may round differently.
        report = _pinned_run("newton", camera, observer, basis, config)
        assert _report_digest(report) == digest
        assert report.termination == "converged_grad"

    @pytest.mark.parametrize("basis, config, steps, digest", [
        (None, {}, 132,
         "9c10826e1723703e5db83199f15f9e684e9b08820dbdcf9d64b468cae8cc14e8"),
        (None, {"camera": 1001, "tau_min": 0.3, "init": "random", "seed": 5}, 31,
         "2e18f180a266e7e7d9bc05a1a4c798640ed411f2efaa00d7b39ba271617643d4"),
        (("cosine", 8), {}, 128,
         "66b52fab60353822c4e6601074c0bce025ba3c1fa970db9b5eed94e9b26d5775"),
        (("cosine", 8), {"camera": 1001, "tau_min": 0.3, "init": "random", "seed": 5}, 40,
         "1fd9c6acaaa2b2f2f852dd094cb195d1e084221a1c66d41fb48d39ccb2c7bb9c"),
    ])
    def test_grad_is_unchanged(self, camera, observer, basis, config, steps, digest):
        # Pinned with the Barzilai-Borwein model, before the per-trial
        # overhead of the trust-region loop was cut: every floating-point
        # operation of a step kept its order. Same BLAS caveat as Newton's.
        report = _pinned_run("grad", camera, observer, basis, config)
        assert (report.accepted_steps, report.termination) == (steps, "converged_obj")
        assert _report_digest(report) == digest


class TestOptimizeColorimetric:
    def test_terminates_immediately_at_global_optimum(self, observer):
        cam = colorimetric_camera(observer)
        report = optimize(cam, observer, OptimizerConfig(method="grad"))
        assert report.termination == "converged_grad"
        assert len(report.iterations) <= 2
        assert abs(report.final_vora - 1.0) < 1e-10
        assert np.max(np.abs(report.final_filter.transmittance - 1.0)) < 1e-12


class TestOptimizeEfficacy:
    def test_newton_reaches_gradient_plateau_in_fifth_of_iterations(self, pinned_runs):
        grad_report = pinned_runs["grad"]
        newton_report = pinned_runs["newton"]
        target = grad_report.final_vora - 1e-9
        crossing = next((row.iteration for row in newton_report.iterations
                         if row.vora >= target), None)
        assert crossing is not None, "newton never reached the gradient plateau"
        assert crossing <= grad_report.accepted_steps / 5
        assert newton_report.final_vora >= target

    @pytest.mark.parametrize("n", [31, 61, 301, 601])
    @pytest.mark.parametrize("tau_min", [1e-4, 0.3])
    def test_gradient_method_converges_to_newtons_optimum(self, n, tau_min):
        # With the Barzilai-Borwein curvature and the scaled Cauchy step the
        # diagonal model reaches Newton's optimum from the unit filter in
        # 106-149 steps at tau_min = 1e-4 and 66-79 at tau_min = 0.3, and
        # from the seed-0 random start in 58-161, ending within 7.2e-11 of
        # Newton's value. Newton takes 9-16 steps.
        observer = cie_observer(n)
        camera = gaussian_camera(observer.grid)
        for init in ("ones", "random"):
            grad, newton = (optimize(camera, observer, OptimizerConfig(
                method=method, tau_min=tau_min, init=init))
                for method in ("grad", "newton"))
            assert grad.termination in ("converged_grad", "converged_obj"), init
            assert grad.accepted_steps <= 300, init
            assert abs(grad.final_vora - newton.final_vora) <= 1e-10, init
            voras = [row.vora for row in grad.iterations]
            assert all(b > a for a, b in zip(voras, voras[1:])), init

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
        diff = np.max(np.abs(base.final_filter.transmittance
                             - halved.final_filter.transmittance))
        assert diff < 1e-6

    def test_normalized_filter_peaks_at_one(self, pinned_runs):
        for report in pinned_runs.values():
            assert report.final_filter.transmittance.max() == 1.0

    @pytest.mark.parametrize("basis", [None, "cosine"])
    @pytest.mark.parametrize("method", ["grad", "newton"])
    def test_a_run_depends_on_its_box_only_through_the_ratio(self, camera, observer,
                                                           method, basis):
        # The box [tau_min 2^-k, 2^-k] runs the unit box's run bit for bit:
        # its trace and its end are the same, and its filter and coefficients
        # are the unit run's scaled exactly by 2^-k.
        def trace(report):
            return np.array([(row.vora, row.step_len, row.grad_inf_norm, row.backtracks)
                             for row in report.iterations]).tobytes()

        for init in ("ones", "random"):
            for tau_min in (1e-4, 0.3):
                cfg = OptimizerConfig(
                    method=method, init=init, tau_min=tau_min,
                    basis=None if basis is None else make_basis(basis, 8, DEFAULT_GRID))
                unit = optimize(camera, observer, cfg)
                for k in (40, 1000):
                    scale = 2.0 ** -k
                    run = optimize(camera, observer, dataclasses.replace(
                        cfg, tau_min=tau_min * scale, tau_max=scale))
                    label = (init, tau_min, k)
                    assert trace(run) == trace(unit), label
                    assert run.termination == unit.termination, label
                    assert (run.final_filter.transmittance.tobytes()
                            == (unit.final_filter.transmittance * scale).tobytes()), label
                    if basis is not None:
                        assert (run.coefficients.tobytes()
                                == (unit.coefficients * scale).tobytes()), label


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
            h0 = hessian(camera, observer, filt, alpha=0.0)
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
    @pytest.mark.parametrize("tol_obj, termination",
                             [(1e-12, "converged_obj"), (0.0, "stalled")])
    def test_no_improving_step_at_the_start(self, observer, tol_obj, termination):
        # At the global optimum the gradient is zero to machine precision;
        # with the gradient stop disabled, iteration 1 cannot improve. The
        # model then promises less than tol_obj = 1e-12 at the largest
        # radius, but not less than 0.
        cam = colorimetric_camera(observer)
        cfg = OptimizerConfig(tol_grad=0.0, tol_obj=tol_obj)
        report = optimize(cam, observer, cfg)
        assert report.termination == termination
        assert report.accepted_steps == 0
        assert len(report.iterations) == 1

    def test_stalled_on_basis_feasibility_wall(self, camera, observer):
        # a two-atom smooth filter driven against a high floor: once the
        # iterate hugs tau_min, the held floor/peak pair leaves the step no
        # room, so no trial improves; with tol_obj = 0 the model's zero gain
        # at the largest radius is not convergence, and the run ends stalled
        basis = make_basis("cosine", 2, DEFAULT_GRID)
        cfg = OptimizerConfig(method="grad", basis=basis, tau_min=0.5,
                              tol_grad=0.0, tol_obj=0.0, max_iters=3000)
        report = optimize(camera, observer, cfg)
        assert report.termination == "stalled"
        assert report.accepted_steps >= 1
        assert report.final_vora > report.initial_vora
        assert abs(report.final_filter.transmittance.min() - 0.5) < 1e-9

    @pytest.mark.parametrize("tol_grad, termination",
                             [(1e-8, "converged_grad"), (0.0, "converged_obj")])
    @pytest.mark.parametrize("method", ["newton", "grad"])
    def test_every_row_on_a_bound_ends_converged_grad(self, camera, observer, method,
                                                      tol_grad, termination):
        # In the box [0.99, 1] the optimum has each row on a bound with its
        # gradient pointing out: no coordinate is free to step, and the
        # projected gradient is zero. Without the gradient stop, the zero
        # step's zero gain ends the run converged_obj.
        report = optimize(camera, observer, OptimizerConfig(
            method=method, tau_min=0.99, tol_grad=tol_grad))
        f = report.final_filter.transmittance
        assert report.termination == termination
        assert np.all((f == 0.99) | (f == 1.0))

    @pytest.mark.parametrize("method", ["newton", "grad"])
    def test_a_zero_step_ends_the_trust_region(self, monkeypatch, camera, observer,
                                               method):
        # The run ends with every row on a bound, where the step is zero and
        # the radius it shrinks to is zero too: the last trust region tries
        # one step, not _MAX_BACKTRACKS of them.
        solves = []
        trust_region = _RunState.trust_region

        def counted(state, solve):
            solves.append(0)

            def counted_solve(radius):
                solves[-1] += 1
                return solve(radius)

            return trust_region(state, counted_solve)

        monkeypatch.setattr(_RunState, "trust_region", counted)
        report = optimize(camera, observer, OptimizerConfig(
            method=method, tau_min=0.99, tol_grad=0.0))
        assert report.termination == "converged_obj"
        assert solves[-1] == 1

    def test_max_iters_label(self, camera, observer):
        report = optimize(camera, observer,
                          OptimizerConfig(method="grad", max_iters=5))
        assert report.termination == "max_iters"
        assert report.accepted_steps == 5


class TestOneBasisPerFilter:
    def test_each_evaluated_filter_is_factored_once(self, monkeypatch, camera, observer):
        # One QR for the start filter and one per trial valued; an accepted
        # trial's basis is the one the next model is built on.
        calls = []

        def counted(camera, f):
            calls.append(f)
            return _filtered_basis(camera, f)

        # The package's name ``optimize`` is the function, not the module.
        module = importlib.import_module("vorafilter.optimize")
        monkeypatch.setattr(module, "_filtered_basis", counted)
        report = optimize(camera, observer, OptimizerConfig())
        backtracks = sum(row.backtracks for row in report.iterations)
        assert report.accepted_steps > 0
        assert len(calls) <= 1 + report.accepted_steps + backtracks


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
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(init="warm")
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=2.5)
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                OptimizerConfig(init="random", seed=seed)
        for bad in (-1.0, np.nan, np.inf):
            for method in ("grad", "newton"):
                with pytest.raises(ValueError, match="alpha"):
                    OptimizerConfig(method=method, alpha=bad)
        for bad in (np.nan, np.inf):
            for field in ("tol_obj", "tol_grad"):
                with pytest.raises(ValueError, match=field):
                    OptimizerConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["max_iters", "seed"])
    def test_rejects_bool(self, field):
        # isinstance(True, int) holds: max_iters=True would run one iteration.
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: True})


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


class TestBasisStartPoint:
    """A start whose basis fit leaves the box is blended toward the fit of
    the constant filter, halving the blend until the gauge accepts it."""

    @staticmethod
    def step_start(tau_min: float) -> FilterSpectrum:
        """1 below 550 nm and ``tau_min`` above: its fit overshoots the box."""
        lam = DEFAULT_GRID.wavelengths
        return FilterSpectrum(grid=DEFAULT_GRID, tau_min=tau_min,
                              transmittance=np.where(lam < 550.0, 1.0, tau_min))

    @staticmethod
    def gauge_outcomes(monkeypatch) -> list[bool]:
        """Whether each coefficient gauge call accepts its trial, in order."""
        outcomes = []
        gauge = _RunState._gauge_coeffs

        def recorded(self, coeffs):
            gauged = gauge(self, coeffs)
            outcomes.append(gauged is not None)
            return gauged

        monkeypatch.setattr(_RunState, "_gauge_coeffs", recorded)
        return outcomes

    @pytest.mark.parametrize("kind, k, tau_min", [("cosine", 8, 0.3),
                                                  ("gaussian", 12, 0.05),
                                                  ("gaussian", 12, 0.3)])
    def test_step_start_needs_one_halving(self, monkeypatch, camera, observer,
                                          kind, k, tau_min):
        outcomes = self.gauge_outcomes(monkeypatch)
        cfg = OptimizerConfig(method="newton", basis=make_basis(kind, k, DEFAULT_GRID),
                              tau_min=tau_min)
        report = optimize(camera, observer, cfg, self.step_start(tau_min))
        assert outcomes[:2] == [False, True]
        assert report.termination.startswith("converged")
        assert report.final_filter.transmittance.min() >= tau_min

    def test_no_feasible_blend_raises(self, monkeypatch, camera, observer):
        # Four wide Gaussians cannot stay within [0.97, 1] anywhere on the
        # blend toward the constant filter's fit.
        outcomes = self.gauge_outcomes(monkeypatch)
        cfg = OptimizerConfig(basis=make_basis("gaussian", 4, DEFAULT_GRID), tau_min=0.97)
        with pytest.raises(NonPositiveFilter, match="feasible basis start point"):
            optimize(camera, observer, cfg, self.step_start(0.97))
        assert outcomes == [False] * 60

    def test_tiny_constant_start_is_the_unit_start(self, camera, observer):
        # The start is scaled by a power of two before its fit, so a constant
        # start at 1e-300 is blended at unit scale, as the unit start is.
        cfg = OptimizerConfig(method="newton", basis=make_basis("cosine", 8, DEFAULT_GRID))
        start = FilterSpectrum(grid=DEFAULT_GRID, transmittance=np.full(N, 1e-300),
                               tau_min=1e-300)
        tiny, unit = optimize(camera, observer, cfg, start), optimize(camera, observer, cfg)
        assert (tiny.termination, tiny.accepted_steps) == (unit.termination, unit.accepted_steps)
        assert abs(tiny.final_vora - unit.final_vora) <= 1e-15
        assert np.max(np.abs(tiny.final_filter.transmittance
                             - unit.final_filter.transmittance)) <= 1e-14

    @pytest.mark.parametrize("kind, k", [("cosine", 8), ("gaussian", 12)])
    def test_start_scale_does_not_change_the_start(self, camera, observer, kind, k):
        # A start's shape survives its scale, since the blend toward the
        # constant filter's fit runs at unit scale whatever s is. The values
        # differ by the rounding of s * shape, 3 ulps.
        lam = DEFAULT_GRID.wavelengths
        shape = 0.6 + 0.3 * np.cos(3.0 * (lam - 400.0) / 300.0)
        cfg = OptimizerConfig(method="newton", basis=make_basis(kind, k, DEFAULT_GRID),
                              max_iters=1)
        values = []
        for s in (1.0, 1e-15, 1e-17, 1e-100, 1e-300, 2.0 ** -1000):
            start = FilterSpectrum(grid=DEFAULT_GRID, transmittance=s * shape,
                                   tau_min=s * shape.min(), tau_max=s * shape.max())
            values.append(optimize(camera, observer, cfg, start).initial_vora)
        assert max(values) - min(values) <= 1e-15

    def test_gauge_rejects_what_it_cannot_rescale(self, camera, observer):
        # No point of the gauge for coefficients whose filter peaks at or
        # below zero, or not at a finite value, or so low that
        # tau_max / peak overflows.
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        state = _RunState(camera, observer, OptimizerConfig(basis=basis), None)
        unit = np.eye(basis.size)[0]
        with np.errstate(all="ignore"):
            for coeffs in (0.0 * unit, -unit, np.nan * unit, 1e-310 * unit):
                assert state.gauge(coeffs) is None


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
