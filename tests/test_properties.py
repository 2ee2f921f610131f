"""Property tests: the factored derivative operator and the CSV round trip.

For the operator, hypothesis draws the grid size, two random three-lobe
cameras (one serves as the observer) and a filter with some entries at the
transmittance floor ``tau_min``. For the CSV format it draws tables of
arbitrary finite floats. The examples are derandomized, so every run checks
the same ones.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import make_random_camera
from oracles import paper_hessian
from vorafilter import (FilterSpectrum, WavelengthGrid, format_spectral_csv, gradient,
                        parse_spectral_csv)
from vorafilter.calculus import _hessian_factors, _projected_observer
from vorafilter.projectors import orthonormal_columns

TAU_MIN = 1e-4

instances = st.fixed_dictionaries({
    "n": st.integers(min_value=4, max_value=150),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "floor_frac": st.floats(min_value=0.0, max_value=0.5),
    "alpha": st.sampled_from([0.0, 1e-6, 1e-4]),
})


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(instances)
def test_factored_operator_identities(case):
    n, seed = case["n"], case["seed"]
    grid = WavelengthGrid(start_nm=400.0, step_nm=300.0 / (n - 1), count=n)
    camera = make_random_camera(seed, grid)
    observer = make_random_camera(seed + 1, grid)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.2, 1.0, n)
    f[rng.permutation(n)[:int(case["floor_frac"] * n)]] = TAU_MIN
    filt = FilterSpectrum(grid=grid, transmittance=f, tau_min=TAU_MIN)

    w = orthonormal_columns(f[:, None] * camera.responses)
    v = orthonormal_columns(observer.responses)
    r = _projected_observer(w, v)
    d, u = _hessian_factors(w, v, r, f, case["alpha"])
    dense = (paper_hessian(camera.responses, observer.responses, f)
             + case["alpha"] * np.eye(n))
    factored = np.diag(d) + u @ u.T
    assert np.max(np.abs(factored - dense)) <= 1e-12 * np.max(np.abs(dense))

    g = gradient(camera, observer, filt)
    assert abs(float(f @ g)) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)
    d0, u0 = _hessian_factors(w, v, r, f, 0.0)
    assert np.max(np.abs(g + d0 * f + u0 @ (u0.T @ f))) < 1e-8


# Extremes of the float64 exponent range, drawn often rather than by luck.
extremes = st.sampled_from([5e-324, -2.2250738585072014e-308, 1e-300, 0.1,
                            1e300, -1.7976931348623157e308])
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), extremes)
tables = st.integers(min_value=1, max_value=4).flatmap(lambda k: st.tuples(
    st.lists(finite, min_size=1, max_size=12, unique=True).map(sorted),
    st.lists(st.text("abcxyzXYZ019_-.", min_size=1, max_size=8), min_size=k, max_size=k),
    st.lists(st.lists(finite, min_size=k, max_size=k), min_size=12, max_size=12),
))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(tables)
def test_csv_round_trip_is_bit_exact(table):
    wavelengths, names, rows = table
    w = np.array(wavelengths)
    values = np.array(rows[:w.size])
    text = format_spectral_csv(w, values, names)
    for source in (text, "\ufeff" + text):
        parsed = parse_spectral_csv(source, expected_channels=len(names))
        assert parsed.wavelengths.tobytes() == w.tobytes()
        assert parsed.values.tobytes() == values.tobytes()
        assert parsed.channel_names == tuple(names)
