"""Vora-Value evaluation against independent oracles and its invariants."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_random_camera, make_random_filter
from oracles import exact_filtered_vora, exact_vora, regularized_objective
from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    GridMismatch,
    NonPositiveFilter,
    OptimizerConfig,
    RankDeficient,
    SensorSet,
    VoraValue,
    WavelengthGrid,
    filtered_vora_value,
    gradient,
    vora_value,
)
from vorafilter.optimize import _RunState

N = DEFAULT_GRID.count


def random_invertible_3x3(rng: np.random.Generator) -> np.ndarray:
    t = rng.uniform(-1.0, 1.0, (3, 3))
    while abs(np.linalg.det(t)) < 1e-2:
        t = rng.uniform(-1.0, 1.0, (3, 3))
    return t


class TestVoraValue:
    def test_linear_transform_of_observer_is_one(self, observer):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = random_invertible_3x3(rng)
            cam = SensorSet(grid=DEFAULT_GRID, responses=observer.responses @ t)
            assert abs(vora_value(cam, observer).raw - 1.0) < 1e-10

    def test_orthogonal_complement_is_zero(self, observer):
        # columns 3..5 of a full QR of [X | R] are orthogonal to span(X)
        rng = np.random.default_rng(1)
        stacked = np.column_stack([observer.responses,
                                   rng.standard_normal((N, 3))])
        q, _ = np.linalg.qr(stacked)
        cam = SensorSet(grid=DEFAULT_GRID, responses=q[:, 3:6])
        assert abs(vora_value(cam, observer).raw) < 1e-12

    def test_pinned_camera_matches_exact_oracle(self, camera, observer):
        got = vora_value(camera, observer).raw
        want = exact_vora(camera.responses, observer.responses)
        assert 0.0 < got < 1.0
        assert abs(got - want) < 1e-12

    def test_symmetry(self, camera, observer):
        ab = vora_value(camera, observer).raw
        ba = vora_value(observer, camera).raw
        assert abs(ab - ba) < 1e-12

    def test_basis_invariance_both_arguments(self, camera, observer):
        rng = np.random.default_rng(2)
        base = vora_value(camera, observer).raw
        for _ in range(5):
            cam = SensorSet(grid=DEFAULT_GRID,
                            responses=camera.responses @ random_invertible_3x3(rng))
            obs = SensorSet(grid=DEFAULT_GRID,
                            responses=observer.responses @ random_invertible_3x3(rng))
            assert abs(vora_value(cam, obs).raw - base) < 1e-10

    def test_grid_mismatch_rejected(self, observer):
        other = WavelengthGrid(400.0, 10.0, 30)
        cam = SensorSet(grid=other, responses=make_random_camera(0, other).responses)
        with pytest.raises(GridMismatch):
            vora_value(cam, observer)

    def test_clamped_view(self):
        vv = VoraValue(raw=1.0 + 5e-13)
        assert vv.value == 1.0
        assert vv.raw > 1.0
        with pytest.raises(ValueError):
            VoraValue(raw=1.1)


class TestFilteredVoraValue:
    def test_matches_exact_expansion_oracle(self, camera, observer):
        for seed in range(10):
            filt = make_random_filter(seed)
            got = filtered_vora_value(camera, observer, filt).raw
            want = exact_filtered_vora(camera.responses, observer.responses,
                                       filt.transmittance)
            assert abs(got - want) < 1e-9

    def test_improving_filter_raises_value(self, camera, observer):
        # any filter at all changes the value; sanity that it stays in range
        filt = make_random_filter(4)
        raw = filtered_vora_value(camera, observer, filt).raw
        assert -1e-12 <= raw <= 1.0 + 1e-12


class TestFilterStacks:
    """An (m, n) stack is checked as each of its rows would be alone."""

    @staticmethod
    def stack_with(row):
        rng = np.random.default_rng(3)
        stack = rng.uniform(0.2, 1.0, (4, N))
        stack[2] = row
        return stack

    def test_values_match_single_filters(self, camera, observer):
        stack = self.stack_with(np.ones(N))
        values = filtered_vora_value(camera, observer, stack)
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        for row, value in zip(stack, values):
            filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=row)
            assert value == filtered_vora_value(camera, observer, filt).raw

    def test_rank_deficient_member_rejected(self, camera, observer):
        # Two wavelengths pass; the rest are far below round-off.
        row = np.full(N, 1e-200)
        row[[5, 20]] = 1.0
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=row, tau_min=1e-300)
        with pytest.raises(RankDeficient):
            filtered_vora_value(camera, observer, filt)
        with pytest.raises(RankDeficient):
            filtered_vora_value(camera, observer, self.stack_with(row))

    @pytest.mark.parametrize("bad, error", [(0.0, NonPositiveFilter),
                                            (-0.5, NonPositiveFilter),
                                            (np.nan, ValueError),
                                            (np.inf, ValueError)])
    def test_bad_member_raises_what_a_filter_raises(self, camera, observer, bad, error):
        row = np.full(N, 0.5)
        row[7] = bad
        with pytest.raises(error) as single:
            FilterSpectrum(grid=DEFAULT_GRID, transmittance=row)
        for fn in (filtered_vora_value, gradient):
            with pytest.raises(error) as stacked:
                fn(camera, observer, self.stack_with(row))
            assert type(stacked.value) is type(single.value)

    def test_value_outside_the_range_raises(self, monkeypatch, camera, observer):
        # A stack's values are checked against [0, 1] as VoraValue checks one.
        import vorafilter.vora as vora
        monkeypatch.setattr(vora, "_vora_of_bases", lambda w, v: np.full(len(w), 1.0 + 1e-9))
        with pytest.raises(ValueError, match=r"outside \[0, 1\] tolerance"):
            filtered_vora_value(camera, observer, self.stack_with(np.ones(N)))

    def test_wrong_width_rejected(self, camera, observer):
        for shape in ((4, N - 1), (N,), (2, 2, N)):
            with pytest.raises(ValueError, match="filter stack"):
                filtered_vora_value(camera, observer, np.full(shape, 0.5))


class TestRegularizedObjective:
    """The regularized objective ``mu = value + alpha/2 ||f||^2`` that an
    optimization run reports for its iterate."""

    @staticmethod
    def run_state(camera, observer, filt, alpha):
        return _RunState(camera, observer, OptimizerConfig(alpha=alpha), filt)

    def test_alpha_zero_equals_filtered_value(self, camera, observer):
        state = self.run_state(camera, observer, make_random_filter(1), 0.0)
        iterate = FilterSpectrum(grid=DEFAULT_GRID, transmittance=state.f)
        assert state.mu() == filtered_vora_value(camera, observer, iterate).raw

    def test_unit_filter_alpha_two_adds_n(self, camera, observer):
        filt = FilterSpectrum.ones(DEFAULT_GRID)
        base = filtered_vora_value(camera, observer, filt).raw
        assert self.run_state(camera, observer, filt, 2.0).mu() == base + 31.0

    def test_penalty_is_half_alpha_norm_squared(self, camera, observer):
        alpha = 1e-3
        state = self.run_state(camera, observer, make_random_filter(8), alpha)
        f = state.f
        assert abs((state.mu() - state.value) - 0.5 * alpha * float(f @ f)) < 1e-14
        oracle = regularized_objective(camera.responses, observer.responses, f, alpha)
        assert abs(state.mu() - oracle) <= 1e-14


def test_vora_value_float_protocol(camera, observer):
    vv = vora_value(camera, observer)
    assert float(vv) == vv.raw


def test_derivative_containers_interoperate_with_numpy(camera, observer):
    from vorafilter import gradient, hessian
    filt = make_random_filter(40)
    g = gradient(camera, observer, filt)
    h = hessian(camera, observer, filt, alpha=1e-4)
    assert np.asarray(g).shape == (N,)
    solved = np.linalg.solve(np.asarray(h), np.asarray(g))
    assert solved.shape == (N,)


def test_every_exported_name_resolves():
    import vorafilter
    assert len(set(vorafilter.__all__)) == len(vorafilter.__all__)
    for name in vorafilter.__all__:
        assert hasattr(vorafilter, name), name
