"""Orthonormal bases and the projectors built from them."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import make_random_camera
from oracles import conditioned_sensor_matrix, projector_normal_equations
from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    RankDeficient,
    SensorSet,
    ShapeMismatch,
    filtered_vora_value,
    gradient,
    gradient_in_basis,
    hessian,
    hessian_in_basis,
    make_basis,
    newton_step,
    vora_value,
)
from vorafilter.projectors import orthonormal_columns

N = DEFAULT_GRID.count


def projector(matrix: np.ndarray) -> np.ndarray:
    q = orthonormal_columns(matrix)
    return q @ q.T


class TestOrthonormalize:
    def test_orthonormal_input_yields_same_projector(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((N, 3)))
        sensors = SensorSet(grid=DEFAULT_GRID, responses=q)
        basis = orthonormal_columns(sensors.responses)
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-12
        assert np.max(np.abs(basis @ basis.T - q @ q.T)) < 1e-12

    def test_degenerate_columns_rejected(self):
        cols = np.zeros((N, 3))
        cols[0, 0] = 1.0
        cols[1, 1] = 1.0
        cols[:, 2] = cols[:, 0] + cols[:, 1]  # rank 2 by construction
        with pytest.raises(RankDeficient):
            SensorSet(grid=DEFAULT_GRID, responses=cols)

    def test_random_inputs_give_orthonormal_columns(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sensors = SensorSet(grid=DEFAULT_GRID,
                                responses=rng.standard_normal((N, 3)))
            basis = orthonormal_columns(sensors.responses)
            assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-12

    def test_stable_up_to_condition_1e6(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = conditioned_sensor_matrix(rng, N, 1e6)
            sensors = SensorSet(grid=DEFAULT_GRID, responses=m)
            basis = orthonormal_columns(sensors.responses)
            assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-9

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            orthonormal_columns(np.ones((3, 4)))
        with pytest.raises(ShapeMismatch):
            orthonormal_columns(np.ones(N))


class TestStacks:
    """``(..., n, k)`` stacks: one QR, each member as if alone."""

    @staticmethod
    def stack(deficient: bool) -> np.ndarray:
        rng = np.random.default_rng(7)
        members = rng.standard_normal((2, 3, N, 3))
        if deficient:
            members[1, 2, :, 2] = members[1, 2, :, 0] - members[1, 2, :, 1]
        return members

    def test_basis_of_each_member(self):
        members = self.stack(deficient=False)
        bases = orthonormal_columns(members)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(bases[i, j], orthonormal_columns(members[i, j]))

    def test_one_deficient_member_rejects_the_stack(self):
        with pytest.raises(RankDeficient):
            orthonormal_columns(self.stack(deficient=True))


class TestProjector:
    def test_coordinate_columns(self):
        m = np.eye(N)[:, :3]
        p = projector(m)
        expected = np.zeros((N, N))
        expected[0, 0] = expected[1, 1] = expected[2, 2] = 1.0
        assert np.array_equal(p, expected)

    def test_matches_normal_equations_on_cie(self, observer):
        p_qr = projector(observer.responses)
        p_ne = projector_normal_equations(observer.responses)
        assert np.max(np.abs(p_qr - p_ne)) < 1e-10

    def test_projects_generator_columns_onto_themselves(self, camera):
        p = projector(camera.responses)
        for j in range(3):
            col = camera.responses[:, j]
            assert np.max(np.abs(p @ col - col)) < 1e-12

    def test_invariants_on_random_inputs(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            p = projector(rng.standard_normal((N, 3)))
            assert np.max(np.abs(p - p.T)) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert abs(np.trace(p) - 3.0) < 1e-10

    def test_basis_invariance_under_right_multiplication(self):
        rng = np.random.default_rng(7)
        for seed in range(25):
            m = make_random_camera(seed).responses
            t = rng.uniform(-1.0, 1.0, (3, 3))
            while abs(np.linalg.det(t)) < 1e-2:
                t = rng.uniform(-1.0, 1.0, (3, 3))
            p1 = projector(m)
            p2 = projector(m @ t)
            assert np.max(np.abs(p1 - p2)) < 1e-10

    def test_rank_deficient_rejected(self):
        m = np.ones((N, 3))
        with pytest.raises(RankDeficient):
            projector(m)


class TestOneBasisPerSensorSet:
    """A sensor set is factored once, when it is built; each call then
    factors only the filtered camera."""

    def test_basis_is_the_read_only_qr_of_the_responses(self, observer):
        assert np.array_equal(observer.basis, orthonormal_columns(observer.responses))
        assert not observer.basis.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            observer.basis = np.eye(N)[:, :3]
        with pytest.raises(TypeError):
            SensorSet(grid=DEFAULT_GRID, responses=observer.responses,
                      basis=observer.basis)

    def test_each_call_makes_one_qr_and_the_value_none(self, monkeypatch, camera,
                                                       observer):
        filt = FilterSpectrum(grid=DEFAULT_GRID,
                              transmittance=np.linspace(0.3, 1.0, N))
        basis = make_basis("cosine", 8, DEFAULT_GRID)
        coeffs = np.linalg.lstsq(basis.basis, filt.transmittance, rcond=None)[0]
        calls = {
            "filtered_vora_value": lambda: filtered_vora_value(camera, observer, filt),
            "gradient": lambda: gradient(camera, observer, filt),
            "gradient_in_basis": lambda: gradient_in_basis(camera, observer, basis,
                                                           coeffs),
            "hessian": lambda: hessian(camera, observer, filt),
            "hessian_in_basis": lambda: hessian_in_basis(camera, observer, basis,
                                                         coeffs),
            "newton_step": lambda: newton_step(camera, observer, filt, 1e-4),
            "vora_value": lambda: vora_value(camera, observer),
        }
        qr, counts = np.linalg.qr, []

        def counted(m):
            counts[-1] += 1
            return qr(m)

        monkeypatch.setattr(np.linalg, "qr", counted)
        for call in calls.values():
            counts.append(0)
            call()
        expected = [1] * (len(calls) - 1) + [0]
        assert dict(zip(calls, counts)) == dict(zip(calls, expected))
