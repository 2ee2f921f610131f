"""Analytic derivatives against finite differences and structural identities."""

from __future__ import annotations

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (cie_instance, cie_observer, gradient_fn, make_random_camera,
                      make_random_filter, objective_fn, random_instances, rel_err)
from oracles import paper_hessian
from vorafilter import (
    BadBasisSpec,
    BasisSet,
    DEFAULT_GRID,
    FilterSpectrum,
    GridMismatch,
    NonPositiveFilter,
    OptimizerConfig,
    RankDeficient,
    SensorSet,
    StepTooLarge,
    VoraFilterError,
    fd_gradient,
    fd_hessian,
    filtered_vora_value,
    gradient,
    gradient_in_basis,
    hessian,
    hessian_in_basis,
    WavelengthGrid,
    gaussian_camera,
    make_basis,
    newton_step,
    optimize,
)
from vorafilter.calculus import (FD_BLOCK_BYTES, FD_STEP, _hessian_factors,
                                 _projected_observer)
from vorafilter.optimize import _RunState
from vorafilter.projectors import orthonormal_columns
from vorafilter.vora import _filtered_basis

N = DEFAULT_GRID.count


class TestFiniteDifferenceOracles:
    """The oracles themselves must behave before they judge anything."""

    def test_quadratic_is_exact(self):
        g = fd_gradient(lambda p: np.sum(p * p, axis=1), np.ones(N), h=1e-6)
        assert np.max(np.abs(g - 2.0)) < 1e-8

    def test_constant_is_zero(self):
        g = fd_gradient(lambda p: np.full(len(p), 3.25), np.full(N, 0.5), h=1e-6)
        assert np.array_equal(g, np.zeros(N))

    def test_per_point_callable_is_rejected(self):
        # The oracles call fn once on the (2n, n) probe stack; a callable
        # returning one number for it cannot be differenced.
        with pytest.raises(ValueError, match="probe stack"):
            fd_gradient(lambda f: 3.25, np.full(N, 0.5), h=1e-6)

    def test_step_leaving_positive_region_rejected(self):
        values = np.full(N, 0.5)
        values[3] = 1e-7
        with pytest.raises(StepTooLarge):
            fd_gradient(lambda f: 0.0, values, h=1e-6)
        with pytest.raises(StepTooLarge):
            fd_hessian(lambda f: f, values, h=1e-5)

    @pytest.mark.parametrize("oracle", [fd_gradient, fd_hessian])
    def test_non_finite_point_or_step_rejected_before_fn(self, oracle):
        def fn(probes):
            raise AssertionError("fn called on an invalid point or step")

        point = np.full(N, 0.5)
        for bad in (np.nan, np.inf):
            values = point.copy()
            values[3] = bad
            with pytest.raises(ValueError, match="finite"):
                oracle(fn, values, h=1e-6)
            with pytest.raises(ValueError, match="finite"):
                oracle(fn, np.full(N, bad), h=1e-6)
        for h in (np.nan, np.inf, -np.inf, 0.0, -1e-6):
            with pytest.raises(ValueError, match="h must be"):
                oracle(fn, point, h=h)

    def test_second_order_error_decay(self, camera, observer):
        # central differences on a smooth objective: error drops ~100x
        # when h drops 10x, until round-off takes over
        filt = make_random_filter(0)
        exact = gradient(camera, observer, filt)
        obj = objective_fn(camera, observer)
        err_coarse = np.max(np.abs(fd_gradient(obj, filt, h=1e-3) - exact))
        err_fine = np.max(np.abs(fd_gradient(obj, filt, h=1e-4) - exact))
        assert err_coarse / err_fine > 10.0


class TestGradient:
    def test_matches_fd_on_20_instances(self):
        worst = 0.0
        for idx, (camera, filt) in enumerate(random_instances(20)):
            observer = make_random_camera(900 + idx)
            got = gradient(camera, observer, filt)
            want = fd_gradient(objective_fn(camera, observer), filt, h=1e-6)
            worst = max(worst, rel_err(got, want))
        assert worst < 1e-5

    def test_vanishes_whenever_value_is_one(self, observer):
        unit = FilterSpectrum.ones(DEFAULT_GRID)
        rng = np.random.default_rng(13)
        for _ in range(5):
            t = rng.uniform(-1.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
            cam = SensorSet(grid=DEFAULT_GRID, responses=observer.responses @ t)
            value = filtered_vora_value(cam, observer, unit).raw
            assert abs(value - 1.0) < 1e-10
            g = gradient(cam, observer, unit)
            assert np.max(np.abs(g)) < 1e-10


class TestHessian:
    def test_alpha_shifts_diagonal_only(self, camera, observer):
        filt = make_random_filter(21)
        h0 = hessian(camera, observer, filt, alpha=0.0)
        h1 = hessian(camera, observer, filt, alpha=1e-3)
        assert np.max(np.abs((h1 - h0) - 1e-3 * np.eye(N))) < 1e-15

    def test_rejects_negative_or_non_finite_alpha(self, camera, observer):
        filt = make_random_filter(23)
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        coeffs = np.zeros(8)
        coeffs[0] = 0.7
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                hessian(camera, observer, filt, alpha=bad)
            with pytest.raises(ValueError):
                hessian_in_basis(camera, observer, basis, coeffs, alpha=bad)

    def test_result_is_symmetric(self, camera, observer):
        filt = make_random_filter(22)
        h = hessian(camera, observer, filt)
        assert np.array_equal(h, h.T)


class TestBasis:
    def test_identity_basis_matches_full_gradient(self, camera, observer):
        basis = BasisSet(DEFAULT_GRID, np.eye(N))
        filt = make_random_filter(31)
        full = gradient(camera, observer, filt)
        via_basis = gradient_in_basis(camera, observer, basis,
                                      filt.transmittance)
        assert np.max(np.abs(full - via_basis)) < 1e-15

    def test_cosine_gradient_matches_fd_in_coefficient_space(self, camera, observer):
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        coeffs = np.zeros(8)
        coeffs[0] = 0.7
        coeffs[3] = 0.05
        got = gradient_in_basis(camera, observer, basis, coeffs)
        obj = objective_fn(camera, observer)
        h = 1e-6
        want = np.empty(8)
        for i in range(8):
            cp, cm = coeffs.copy(), coeffs.copy()
            cp[i] += h
            cm[i] -= h
            up, down = obj(np.stack([basis.basis @ cp, basis.basis @ cm]))
            want[i] = (up - down) / (2 * h)
        assert rel_err(got, want) < 1e-5

    def test_cosine_hessian_matches_fd_in_coefficient_space(self, camera, observer):
        basis = make_basis("cosine", 6, DEFAULT_GRID)
        coeffs = np.zeros(6)
        coeffs[0] = 0.8
        alpha = 1e-4
        got = hessian_in_basis(camera, observer, basis, coeffs, alpha=alpha)
        h = 1e-5
        want = np.empty((6, 6))
        for i in range(6):
            cp, cm = coeffs.copy(), coeffs.copy()
            cp[i] += h
            cm[i] -= h
            gp = gradient_in_basis(camera, observer, basis, cp)
            gm = gradient_in_basis(camera, observer, basis, cm)
            want[:, i] = (gp - gm) / (2 * h)
        want += alpha * basis.basis.T @ basis.basis
        assert rel_err(got, want) < 1e-4

    def test_nonpositive_combination_rejected(self, camera, observer):
        basis = make_basis("cosine", 4, DEFAULT_GRID)
        cases = [([0.0, 1.0, 0.0, 0.0], NonPositiveFilter),  # oscillates through zero
                 # A non-finite B c is rejected too, not differentiated to NaN.
                 ([1.0, np.nan, 0.0, 0.0], ValueError),
                 ([1.0, np.inf, 0.0, 0.0], ValueError),
                 ([np.inf, 0.0, 0.0, 0.0], ValueError)]
        for coeffs, error in cases:
            for fn in (gradient_in_basis, hessian_in_basis):
                with pytest.raises(error):
                    fn(camera, observer, basis, np.array(coeffs))


class TestMakeBasis:
    def test_cosine_first_atom_constant(self):
        basis = make_basis("cosine", 1, DEFAULT_GRID)
        assert np.array_equal(basis.basis, np.ones((N, 1)))

    def test_cosine_k8_has_rank_8(self):
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        s = np.linalg.svd(basis.basis, compute_uv=False)
        tol = s[0] * N * np.finfo(np.float64).eps * 1e3
        assert int(np.sum(s > tol)) == 8

    def test_gaussian_full_rank(self):
        for k in (1, 4, 12, 31):
            basis = make_basis("gaussian", k, DEFAULT_GRID)
            s = np.linalg.svd(basis.basis, compute_uv=False)
            assert s[-1] > s[0] * N * np.finfo(np.float64).eps * 1e3

    def test_bad_specs_rejected(self):
        # identity is full mode, built as BasisSet(grid, np.eye(n)), not a kind.
        for kind in ("wavelet", "identity"):
            with pytest.raises(BadBasisSpec, match="unknown basis kind"):
                make_basis(kind, 8, DEFAULT_GRID)
        with pytest.raises(BadBasisSpec):
            make_basis("cosine", 0, DEFAULT_GRID)
        with pytest.raises(BadBasisSpec):
            make_basis("cosine", N + 1, DEFAULT_GRID)
        for k in (8.0, 8.5, np.nan, "8"):
            with pytest.raises(BadBasisSpec, match="k="):
                make_basis("cosine", k, DEFAULT_GRID)
        assert make_basis("cosine", np.int64(8), DEFAULT_GRID).size == 8

    def test_bool_size_rejected(self):
        # isinstance(True, int) holds, but True is not a basis size of 1.
        with pytest.raises(BadBasisSpec, match="k="):
            make_basis("cosine", True, DEFAULT_GRID)

    def test_non_finite_basis_rejected(self):
        # Rejected before the rank check, not passed on to numpy as NaN.
        for bad in (np.nan, np.inf):
            cols = np.eye(N)[:, :2]
            cols[3, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                BasisSet(DEFAULT_GRID, cols)
        with pytest.raises(ValueError, match="finite"):
            BasisSet(DEFAULT_GRID, np.full((N, 2), np.nan))

    def test_dependent_columns_rejected(self):
        cols = np.eye(N)[:, :3]
        cols[:, 2] = cols[:, 0] - 2.0 * cols[:, 1]
        with pytest.raises(BadBasisSpec, match="linearly independent"):
            BasisSet(DEFAULT_GRID, cols)


def test_every_derivative_is_a_plain_ndarray(camera, observer):
    filt = make_random_filter(12)
    f = filt.transmittance
    basis = make_basis("cosine", 6, DEFAULT_GRID)
    coeffs = np.array([0.8, 0.05, 0.0, 0.0, 0.0, 0.0])
    results = {
        "gradient": (gradient(camera, observer, filt), (N,)),
        "gradient of a stack": (gradient(camera, observer, np.vstack([f, f])), (2, N)),
        "gradient_in_basis": (gradient_in_basis(camera, observer, basis, coeffs), (6,)),
        "hessian": (hessian(camera, observer, filt, alpha=1e-4), (N, N)),
        "hessian_in_basis": (hessian_in_basis(camera, observer, basis, coeffs), (6, 6)),
        "newton_step": (newton_step(camera, observer, filt, 1e-4), (N,)),
        "fd_gradient": (fd_gradient(objective_fn(camera, observer), filt), (N,)),
        "fd_hessian": (fd_hessian(gradient_fn(camera, observer), filt), (N, N)),
    }
    for name, (value, shape) in results.items():
        assert type(value) is np.ndarray, name
        assert value.shape == shape and value.dtype == np.float64, name


class TestFloorHuggingFilters:
    """The 1/f factors reach 1e4 at the box floor; accuracy must survive."""

    def test_identities_at_the_transmittance_floor(self, camera, observer):
        rng = np.random.default_rng(0)
        f = rng.uniform(0.3, 1.0, N)
        f[rng.permutation(N)[:10]] = 1e-4
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=f)
        g = gradient(camera, observer, filt)
        h = hessian(camera, observer, filt)
        gfd = fd_gradient(objective_fn(camera, observer), filt, h=1e-7)
        assert rel_err(g, gfd) < 1e-5
        assert abs(f @ g) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)
        assert np.max(np.abs(g + h @ f)) < 1e-8

    def test_rank_deficient_filtered_camera_raises(self, camera, observer):
        # Transmittance 1e-200 on all rows but two leaves diag(f) Q of
        # numerical rank 2: every public derivative raises RankDeficient, as
        # the value and a design from it do, with no floating-point warning
        # on the way.
        f = np.full(N, 1e-200)
        f[15:17] = 1.0
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=f, tau_min=1e-300)
        identity = BasisSet(DEFAULT_GRID, np.eye(N))
        calls = [
            lambda: filtered_vora_value(camera, observer, filt),
            lambda: gradient(camera, observer, filt),
            lambda: gradient(camera, observer, np.vstack([np.ones(N), f])),
            lambda: gradient_in_basis(camera, observer, identity, f),
            lambda: hessian(camera, observer, filt),
            lambda: hessian_in_basis(camera, observer, identity, f),
            lambda: newton_step(camera, observer, filt, 1e-4),
            lambda: optimize(camera, observer,
                             OptimizerConfig(method="grad", tau_min=1e-300), filt),
            lambda: optimize(camera, observer,
                             OptimizerConfig(method="newton", tau_min=1e-300), filt),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in calls:
                with pytest.raises(RankDeficient):
                    call()


def basis_coefficients(basis, target):
    """Coefficients of a strictly positive ``B c`` close to ``target``."""
    coeffs, *_ = np.linalg.lstsq(basis.basis, target, rcond=None)
    # The constant atom shifts B c uniformly: lift its minimum to min(target).
    coeffs[0] += target.min() - (basis.basis @ coeffs).min()
    return coeffs


@pytest.mark.parametrize("n", [31, 301])
@pytest.mark.parametrize("floor", [False, True], ids=["random", "floor"])
@pytest.mark.parametrize("kind, k", [("identity", None), ("cosine", 8)])
def test_consumers_of_the_kernel_agree_exactly(n, floor, kind, k):
    """Consumers that share one code path return exactly the same numbers,
    so none can drift from the rest."""
    camera, observer, target = cie_instance(n, floor=floor)
    grid = camera.grid
    full = kind == "identity"
    basis = BasisSet(grid, np.eye(n)) if full else make_basis(kind, k, grid)
    coeffs = target if full else basis_coefficients(basis, target)
    f = basis.basis @ coeffs
    filt = FilterSpectrum(grid=grid, transmittance=f, tau_min=1e-12, tau_max=np.inf)
    cols, alpha = basis.basis, 1e-4

    g = gradient(camera, observer, filt)
    assert np.array_equal(gradient_in_basis(camera, observer, basis, coeffs), cols.T @ g)

    # The optimizer's trust-region step at the same filter, every component
    # free: a step in the scale chart (for a filter the peak stays put, for
    # coefficients the step is orthogonal to them) within the radius and the
    # box, whose predicted gain is the value's quadratic model.
    config = OptimizerConfig(method="newton", alpha=alpha, tau_min=1e-5,
                             basis=None if full else basis)
    state = _RunState(camera, observer, config, None)
    state.x, state.f = (f, f) if full else (coeffs, f)
    state.w = _filtered_basis(camera, f)
    _, solve = state.trust_subproblem()
    dense = hessian(camera, observer, filt)
    h_basis = hessian_in_basis(camera, observer, basis, coeffs)
    x_norm = np.linalg.norm(state.x)
    if full:
        free = np.arange(n) != np.argmax(f)
        chart = np.eye(n)[:, free]
    else:
        chart = np.linalg.svd(coeffs[None, :])[2][1:].T  # orthonormal, spans c-perp
    h_chart = chart.T @ (dense if full else h_basis) @ chart
    g_chart = chart.T @ (g if full else cols.T @ g)
    # Short of the optimum the model is not concave in the chart, or its
    # maximizer lies beyond every radius tried, so the CG step ends on the
    # boundary; only the box can shorten it.
    radii = (1e-3 * x_norm, 0.1 * x_norm, 10.0 * x_norm)
    assert (np.linalg.eigvalsh(h_chart).max() > 0.0
            or np.linalg.norm(np.linalg.solve(h_chart, g_chart)) > radii[-1])
    for radius in radii:
        step, predicted = solve(radius)
        assert np.linalg.norm(step - chart @ (chart.T @ step)) <= 1e-12 * np.linalg.norm(step)
        assert np.linalg.norm(step) <= radius * (1.0 + 1e-12)
        if full:
            trial = f + step
            assert np.all((trial >= config.tau_min - 1e-15) & (trial <= config.tau_max))
        else:
            trial = cols @ (coeffs + step)
            assert trial.min() >= config.tau_min / config.tau_max * trial.max()
            if trial.min() > 2 * config.tau_min / config.tau_max * trial.max():
                # Not cut back by the box, so the step fills the radius.
                assert abs(np.linalg.norm(step) - radius) <= 1e-12 * radius
        s_f = step if full else cols @ step
        model = g @ s_f + 0.5 * (s_f @ (dense @ s_f))
        assert abs(predicted - model) <= 1e-10 * abs(model)
        if not full:
            g_basis = cols.T @ g
            assert predicted == float(g_basis @ step + 0.5 * (step @ (h_basis @ step)))


@pytest.mark.parametrize("n", [31, 301, 601])
@pytest.mark.parametrize("floor", [False, True], ids=["random", "floor"])
@pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1e-4])
def test_factored_operator_matches_dense_assembly(n, floor, alpha):
    """``diag(d) + U U^T``, which :func:`hessian` returns, is the paper's
    dense ``H + alpha I``, and the Woodbury Newton solve on it is backward
    stable and agrees with the dense solve."""
    camera, observer, f = cie_instance(n, floor=floor)
    filt = FilterSpectrum(grid=camera.grid, transmittance=f, tau_min=1e-12, tau_max=np.inf)

    def dense_operator(point):
        return paper_hessian(camera.responses, observer.responses, point) + alpha * np.eye(n)

    dense = dense_operator(f)
    w = orthonormal_columns(f[:, None] * camera.responses)
    v = orthonormal_columns(observer.responses)
    d, u = _hessian_factors(w, v, _projected_observer(w, v), f)
    assert u.shape == (n, 9)
    factored = hessian(camera, observer, filt, alpha=alpha)
    assert np.array_equal(factored, np.diag(d + alpha) + u @ u.T)
    assert rel_err(factored, dense) <= 1e-12

    basis = make_basis("cosine", 8, camera.grid)
    coeffs = basis_coefficients(basis, f)
    dense_basis = basis.basis.T @ dense_operator(basis.basis @ coeffs) @ basis.basis
    assert rel_err(hessian_in_basis(camera, observer, basis, coeffs, alpha),
                   dense_basis) <= 1e-12

    rhs = -(gradient(camera, observer, filt) + alpha * f)
    step = newton_step(camera, observer, filt, alpha)
    backward = (np.linalg.norm(factored @ step - rhs)
                / (np.linalg.norm(factored, 2) * np.linalg.norm(step) + np.linalg.norm(rhs)))
    assert backward <= 1e-14
    reference = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(reference)


def one_probe_at_a_time(fn, f, h):
    """Central differences probing one filter per call, column ``i`` from
    ``fn(f + h e_i)`` and ``fn(f - h e_i)``: the reference the stacked
    oracle must reproduce bit for bit."""
    columns = []
    for i in range(f.size):
        fp, fm = f.copy(), f.copy()
        fp[i] += h
        fm[i] -= h
        columns.append((fn(fp) - fn(fm)) / (2.0 * h))
    return np.stack(columns, axis=-1)


@pytest.mark.parametrize("n", [31, 61, 301])
class TestStackedEvaluation:
    """A stack of filters gives each member's per-filter result exactly."""

    def test_value_and_gradient_rows_match_single_filters(self, n):
        camera, observer, f = cie_instance(n)
        rng = np.random.default_rng(n + 1)
        stack = np.vstack([f, rng.uniform(0.2, 1.0, (5, n)), np.ones(n)])
        values = filtered_vora_value(camera, observer, stack)
        grads = gradient(camera, observer, stack)
        assert values.shape == (7,) and grads.shape == (7, n)
        for i, row in enumerate(stack):
            filt = FilterSpectrum(grid=camera.grid, transmittance=row)
            assert values[i] == filtered_vora_value(camera, observer, filt).raw
            assert np.array_equal(grads[i], gradient(camera, observer, filt))

    def test_oracles_match_one_probe_at_a_time(self, n):
        camera, observer, f = cie_instance(n)

        def probe(values):
            return FilterSpectrum(grid=camera.grid, transmittance=values,
                                  tau_min=1e-12, tau_max=np.inf)

        g_fd = fd_gradient(objective_fn(camera, observer), f)
        h_fd = fd_hessian(gradient_fn(camera, observer), f)
        assert np.array_equal(g_fd, one_probe_at_a_time(
            lambda v: filtered_vora_value(camera, observer, probe(v)).raw, f, FD_STEP))
        assert np.array_equal(h_fd, one_probe_at_a_time(
            lambda v: gradient(camera, observer, probe(v)), f, FD_STEP))

    def test_oracle_calls_fn_once_per_probe_block(self, n):
        f = cie_instance(n)[2]
        h = 1e-6
        calls = []

        def fn(probes):
            calls.append(probes.copy())
            return probes.sum(axis=1)

        fd_gradient(fn, f, h=h)
        # As many pairs per call as FD_BLOCK_BYTES holds: all of them up to
        # n = 128, 54 at n = 301.
        block = FD_BLOCK_BYTES // (16 * n)
        assert len(calls) == -(-n // block)
        start = 0
        for probes in calls:
            m = len(probes) // 2
            assert probes.shape == (2 * m, n) and 1 <= m <= block
            assert probes.nbytes <= FD_BLOCK_BYTES
            for j, i in enumerate(range(start, start + m)):
                fp, fm = f.copy(), f.copy()
                fp[i] += h
                fm[i] -= h
                assert np.array_equal(probes[j], fp)
                assert np.array_equal(probes[m + j], fm)
            start += m
        assert start == n


@pytest.mark.parametrize("n", [31, 61, 301])
def test_default_gradient_oracle_is_accurate(n):
    # At the default step the error is truncation-sized, under 1e-9 at
    # n <= 61 and 1e-8 at n = 301; a step of 1e-6 reads 5-9e-8 at n = 301.
    observer = cie_observer(n)
    grid = observer.grid
    rng = np.random.default_rng(n)
    for camera in [gaussian_camera(grid)] + [make_random_camera(seed, grid)
                                             for seed in (1001, 1003, 1007)]:
        filt = FilterSpectrum(grid=grid, transmittance=rng.uniform(0.2, 1.0, n))
        g_fd = fd_gradient(objective_fn(camera, observer), filt)
        assert rel_err(g_fd, gradient(camera, observer, filt)) <= 2e-8


# Every public call that takes a filter ``f``, as a function of it.
FILTER_CALLS = {
    "filtered_vora_value": lambda cam, obs, f: filtered_vora_value(cam, obs, f),
    "gradient": lambda cam, obs, f: gradient(cam, obs, f),
    "hessian": lambda cam, obs, f: hessian(cam, obs, f),
    "newton_step": lambda cam, obs, f: newton_step(cam, obs, f, 1e-4),
    "regularized_objective": lambda cam, obs, f: _RunState(
        cam, obs, OptimizerConfig(alpha=1e-4), f).mu(),
    "optimize": lambda cam, obs, f: optimize(cam, obs, OptimizerConfig(max_iters=1),
                                             initial_filter=f),
}
# The calls that also take an (m, n) stack of filters.
STACK_CALLS = ("filtered_vora_value", "gradient")


class TestFilterIntake:
    """How every call that takes a filter checks it where it enters."""

    @pytest.mark.parametrize("name", FILTER_CALLS)
    def test_filter_on_another_grid_raises_grid_mismatch(self, camera, observer, name):
        other = FilterSpectrum.ones(WavelengthGrid(400.0, 10.0, N - 1))
        with pytest.raises(GridMismatch):
            FILTER_CALLS[name](camera, observer, other)

    @pytest.mark.parametrize("shape", [(N,), (1, N)])
    @pytest.mark.parametrize("name", [n for n in FILTER_CALLS if n not in STACK_CALLS])
    def test_array_to_a_single_filter_call_raises_type_error(self, camera, observer,
                                                             name, shape):
        with pytest.raises(TypeError, match="FilterSpectrum"):
            FILTER_CALLS[name](camera, observer, np.full(shape, 0.5))

    @pytest.mark.parametrize("name", STACK_CALLS)
    def test_one_dimensional_array_to_a_stack_call_raises_value_error(self, camera,
                                                                      observer, name):
        with pytest.raises(ValueError, match="filter stack"):
            FILTER_CALLS[name](camera, observer, np.full(N, 0.5))

    @pytest.mark.parametrize("bad, error", [(np.nan, ValueError), (0.0, NonPositiveFilter)])
    @pytest.mark.parametrize("name", STACK_CALLS)
    def test_bad_stack_member(self, camera, observer, name, bad, error):
        stack = np.full((3, N), 0.5)
        stack[1, 7] = bad
        with pytest.raises(error) as raised:
            FILTER_CALLS[name](camera, observer, stack)
        assert type(raised.value) is error

    @staticmethod
    def assert_each_call_overflows(camera, observer, trans):
        """The six public calls that take a filter, and the two stack calls
        given a stack, raise the QR's typed error for ``trans``."""
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=trans, tau_max=np.inf)
        stack = np.vstack([np.ones(N), trans])
        basis = make_basis("cosine", 4, DEFAULT_GRID)
        coeffs = np.array([1.7e308, 0.0, 0.0, 0.0])
        calls = [lambda: filtered_vora_value(camera, observer, filt),
                 lambda: filtered_vora_value(camera, observer, stack),
                 lambda: gradient(camera, observer, filt),
                 lambda: gradient(camera, observer, stack),
                 lambda: hessian(camera, observer, filt),
                 lambda: newton_step(camera, observer, filt, 1e-4),
                 lambda: gradient_in_basis(camera, observer, basis, coeffs),
                 lambda: hessian_in_basis(camera, observer, basis, coeffs)]
        for call in calls:
            with pytest.raises(VoraFilterError, match="overflows: its QR is not finite"):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filter_overflowing_the_camera_raises(self, observer):
        # The CIE table as a camera: z-bar peaks near 1.78 at 450 nm, so a
        # transmittance of 1.7e308 there overflows diag(f) Q.
        trans = np.ones(N)
        trans[5] = 1.7e308
        self.assert_each_call_overflows(observer, observer, trans)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filter_overflowing_the_qr_raises(self, camera, observer):
        # 1.7e308 at every sample through a camera that peaks at 1: diag(f) Q
        # is finite, and its QR's column norms overflow.
        self.assert_each_call_overflows(camera, observer, np.full(N, 1.7e308))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tiny", [1e-160, 1e-170, 1e-200])
    def test_filter_entry_whose_square_underflows(self, camera, observer, tiny):
        # Below about 1e-160, f_i^2 underflows and d_i = alpha - (2/3)
        # |r_i|^2 / f_i^2 is 0/0: each derivative is finite or a ValueError,
        # with no floating-point warning.
        trans = np.ones(N)
        trans[7] = tiny
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=trans, tau_min=1e-300)
        unit = BasisSet(DEFAULT_GRID, np.eye(N))
        calls = {"filtered_vora_value": lambda: filtered_vora_value(camera, observer, filt).raw,
                 "gradient": lambda: gradient(camera, observer, filt),
                 "gradient of a stack": lambda: gradient(camera, observer, trans[None]),
                 "gradient_in_basis": lambda: gradient_in_basis(camera, observer, unit, trans),
                 "hessian": lambda: hessian(camera, observer, filt),
                 "newton_step": lambda: newton_step(camera, observer, filt, 1e-4),
                 "hessian_in_basis": lambda: hessian_in_basis(camera, observer, unit,
                                                              trans, 1e-4)}
        raised = set()
        for name, call in calls.items():
            try:
                assert np.all(np.isfinite(call())), name
            except ValueError as exc:
                # The rule names its call; newton_step checks the Hessian's
                # factors before it solves.
                want = "hessian_in_basis" if name == "hessian_in_basis" else "hessian"
                assert str(exc) == f"{want} entries must be finite", name
                raised.add(name)
        underflows = tiny * tiny == 0.0
        assert raised == ({"hessian", "newton_step", "hessian_in_basis"} if underflows
                          else set())


def test_the_callers_floating_point_state_survives(camera, observer):
    # Each public call computes in an error state of its own and hands the
    # caller's back, also when it nests another call, raises, or is called
    # inside a caller's errstate(all="raise").
    filt = make_random_filter(7)
    basis = make_basis("cosine", 8, DEFAULT_GRID)
    c = np.linalg.lstsq(basis.basis, filt.transmittance, rcond=None)[0]
    tiny_c = np.zeros(basis.size)
    tiny_c[0] = 1e-154
    rank_two = np.full(N, 1e-200)
    rank_two[15:17] = 1.0
    start = FilterSpectrum(grid=DEFAULT_GRID, transmittance=rank_two, tau_min=1e-300)
    calls = {
        "filtered_vora_value": lambda: filtered_vora_value(camera, observer, filt),
        "gradient": lambda: gradient(camera, observer, filt),
        "gradient_in_basis, calling gradient": lambda: gradient_in_basis(
            camera, observer, basis, c),
        "hessian": lambda: hessian(camera, observer, filt),
        "hessian_in_basis": lambda: hessian_in_basis(camera, observer, basis, c),
        "newton_step": lambda: newton_step(camera, observer, filt, 1e-4),
        "optimize": lambda: optimize(camera, observer, OptimizerConfig(max_iters=2)),
    }
    raising = {
        "hessian_in_basis overflowing": (ValueError, lambda: hessian_in_basis(
            camera, observer, basis, tiny_c)),
        "optimize from a rank-deficient start": (RankDeficient, lambda: optimize(
            camera, observer, OptimizerConfig(tau_min=1e-300), initial_filter=start)),
    }
    for state in ({}, {"all": "raise"}, {"over": "warn", "under": "raise"}):
        with np.errstate(**state):
            caller = np.geterr()
            for name, call in calls.items():
                call()
                assert np.geterr() == caller, name
            for name, (error, call) in raising.items():
                with pytest.raises(error):
                    call()
                assert np.geterr() == caller, name


def test_concurrent_calls_keep_each_threads_floating_point_state(camera, observer):
    # Threads call gradient, each under an error state of its own: no call
    # may fail on, or leave behind, another thread's state. A short switch
    # interval interleaves the calls.
    filt = make_random_filter(7)
    states = [{"all": "raise"}, {"all": "ignore"}, {"over": "warn"}, {"under": "raise"}]

    def worker(state):
        with np.errstate(**state):
            caller = np.geterr()
            for _ in range(40):
                gradient(camera, observer, filt)
                assert np.geterr() == caller

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(states)) as pool:
            for future in [pool.submit(worker, state) for state in states]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
