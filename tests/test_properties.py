"""Property tests: the factored derivative operator, the floating-point rule
and the CSV round trip.

For the operator, hypothesis draws the grid size, two random three-lobe
cameras (one serves as the observer) and a filter with some entries at the
transmittance floor ``tau_min``. For the floating-point rule it draws filters
at every scale of the float64 range, down to the subnormals. For the CSV
format it draws tables of arbitrary finite floats. The examples are
derandomized, so every run checks the same ones.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import make_random_camera
from oracles import paper_hessian
from vorafilter import (DEFAULT_GRID, FilterSpectrum, VoraFilterError, WavelengthGrid,
                        filtered_vora_value, format_spectral_csv, gradient,
                        gradient_in_basis, hessian, hessian_in_basis, make_basis,
                        newton_step, parse_spectral_csv)
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
    d, u = _hessian_factors(w, v, r, f)
    dense = (paper_hessian(camera.responses, observer.responses, f)
             + case["alpha"] * np.eye(n))
    factored = np.diag(d + case["alpha"]) + u @ u.T
    assert np.max(np.abs(factored - dense)) <= 1e-12 * np.max(np.abs(dense))

    g = gradient(camera, observer, filt)
    assert abs(float(f @ g)) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)
    assert np.max(np.abs(g + d * f + u @ (u.T @ f))) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(exponent=st.integers(min_value=-320, max_value=0),
       mantissa=st.floats(min_value=1.0, max_value=9.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       one_entry=st.booleans())
# Each of these broke the rule before it was defined once: a warning from
# gradient before its own guard raised, and non-finite arrays, after overflow
# warnings, from gradient_in_basis (c0 = 1e-310) and hessian_in_basis. At
# c0 = 1e-315 gradient_in_basis raised from the gradient nested in it, where
# now it raises, as at c0 = 1e-310, "gradient_in_basis entries must be finite".
@example(exponent=-315, mantissa=1.0, seed=0, one_entry=False)
@example(exponent=-310, mantissa=1.0, seed=0, one_entry=True)
@example(exponent=-154, mantissa=1.0, seed=0, one_entry=True)
@example(exponent=-155, mantissa=3.0, seed=0, one_entry=True)
def test_every_call_is_finite_or_raises_typed(camera, observer, exponent, mantissa, seed,
                                               one_entry):
    # The filter is ``scale * u`` with u uniform in [0.5, 1], or ones with one
    # entry at ``scale``; the basis calls take c = (scale, 0, ...) in cosine:8.
    # Every call, under warnings as errors, returns finite values or raises
    # ValueError or a VoraFilterError; a basis call's non-finite result is
    # named by that call.
    scale = mantissa * float(f"1e{exponent}")
    rng = np.random.default_rng(seed)
    n = DEFAULT_GRID.count
    if one_entry:
        f = np.ones(n)
        f[rng.integers(n)] = scale
    else:
        f = scale * rng.uniform(0.5, 1.0, n)
    filt = FilterSpectrum(DEFAULT_GRID, f, tau_min=f.min(), tau_max=f.max())
    basis = make_basis("cosine", 8, DEFAULT_GRID)
    c = np.zeros(basis.size)
    c[0] = scale
    cam, obs = camera, observer
    calls = {"filtered_vora_value": lambda: filtered_vora_value(cam, obs, filt).raw,
             "filtered_vora_value of a stack": lambda: filtered_vora_value(cam, obs, f[None]),
             "gradient": lambda: gradient(cam, obs, filt),
             "gradient of a stack": lambda: gradient(cam, obs, f[None]),
             "hessian": lambda: hessian(cam, obs, filt),
             "newton_step": lambda: newton_step(cam, obs, filt, 1e-4),
             "gradient_in_basis": lambda: gradient_in_basis(cam, obs, basis, c),
             "hessian_in_basis": lambda: hessian_in_basis(cam, obs, basis, c, 1e-4)}
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except (ValueError, VoraFilterError) as exc:
                if name.endswith("_in_basis") and "entries must be finite" in str(exc):
                    assert str(exc) == f"{name} entries must be finite"
                continue
        assert np.all(np.isfinite(out)), name


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
