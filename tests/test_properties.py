"""Property tests: the factored derivative operator, the floating-point rule,
the CSV round trip, the CLI's reading of CSV files and its command lines.

For the operator, hypothesis draws the grid size, two random three-lobe
cameras (one serves as the observer) and a filter with some entries at the
transmittance floor ``tau_min``. For the floating-point rule it draws filters
at every scale of the float64 range, down to the subnormals. For the CSV
format it draws tables of arbitrary finite floats, some with one fault. For
the CLI it draws the bytes of an input file, well formed or not, and command
lines with any flag values. The examples are derandomized, so every run
checks the same ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
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
from vorafilter.cli import main
from vorafilter.projectors import orthonormal_columns
from vorafilter.vora import RANGE_TOL

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
# A table's one fault, if any: a non-finite cell, two wavelengths out of
# order, a repeated row or no rows.
table_faults = st.sampled_from([None] * 6 + ["nan", "inf", "-inf", "unsorted", "repeated",
                                             "empty"])


@st.composite
def tables(draw):
    """(fault, wavelengths, values, channel names): a table of sorted,
    distinct wavelengths and finite values, then its fault."""
    fault, k = draw(table_faults), draw(st.integers(min_value=1, max_value=4))
    w = sorted(draw(st.lists(finite, min_size=2 if fault == "unsorted" else 1, max_size=12,
                             unique=True)))
    rows = draw(st.lists(st.lists(finite, min_size=k, max_size=k),
                         min_size=len(w), max_size=len(w)))
    names = draw(st.lists(st.text("abcxyzXYZ019_-.", min_size=1, max_size=8),
                          min_size=k, max_size=k))
    i = draw(st.integers(min_value=0, max_value=len(w) - 2 if fault == "unsorted" else len(w) - 1))
    if fault in ("nan", "inf", "-inf"):
        j = draw(st.integers(min_value=0, max_value=k))
        if j == 0:
            w[i] = float(fault)
        else:
            rows[i][j - 1] = float(fault)
    elif fault == "unsorted":
        w[i], w[i + 1] = w[i + 1], w[i]
    elif fault == "repeated":
        w.insert(i, w[i])
        rows.insert(i, rows[i])
    elif fault == "empty":
        w, rows = [], []
    return fault, np.array(w), np.array(rows).reshape(len(w), k), names


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(tables())
# Zero rows, which the derandomized draws do not reach.
@example(("empty", np.array([]), np.empty((0, 2)), ["a", "b"]))
def test_csv_round_trip_is_bit_exact(table):
    # The writer raises on a table the parser rejects, and on no other.
    fault, w, values, names = table
    try:
        text = format_spectral_csv(w, values, names)
    except (ValueError, VoraFilterError):
        assert fault is not None
        return
    for source in (text, "\ufeff" + text):
        parsed = parse_spectral_csv(source, expected_channels=len(names))
        assert parsed.wavelengths.tobytes() == w.tobytes()
        assert parsed.values.tobytes() == values.tobytes()
        assert parsed.channel_names == tuple(names)


# The magnitudes of a generated file: its cells at one scale from the least
# subnormal to near the float maximum, or each cell at its own scale.
scales = st.one_of(st.none(), st.floats(min_value=5e-324, max_value=1.7e308))
magnitudes = st.floats(min_value=5e-324, max_value=1.7e308)
# Odd cells, a fault: zeros, negatives, non-finite, empty or non-numeric.
odd_cells = st.sampled_from(["0", "-0.0", "-1", "-3e-200", "nan", "inf", "-inf", "", "x",
                             "1e", "0x10"])
# 0-12 wavelengths in 380-720 nm: the default grid's ends, or points beyond
# them, are often among them, so that many tables cover the 400-700 nm grid.
# The duplicate fault repeats the first.
wavelengths = st.tuples(st.sampled_from([[400.0], [380.0], []]),
                        st.lists(st.floats(min_value=380.0, max_value=720.0), max_size=10),
                        st.sampled_from([[700.0], [720.0], []])).map(lambda t: sum(t, []))
plain_names = st.sampled_from(["r", "g", "b", "t"])
odd_names = st.text(alphabet="rgb ,#\n\r\t", max_size=4)


@st.composite
def csv_files(draw, channels: int) -> bytes:
    """A spectral CSV of sorted rows with ``channels`` value columns,
    perhaps behind a byte-order mark, and with up to two faults: odd cells,
    duplicate wavelengths, ragged rows, names holding separators, or
    trailing non-UTF-8 bytes. Many files have none, and are valued."""
    faults = draw(st.sets(st.sampled_from(["cells", "duplicates", "ragged", "names", "tail"]),
                          max_size=2))
    scale = draw(scales)
    number = (magnitudes if scale is None
              else st.floats(min_value=0.1, max_value=1.0).map(lambda u: scale * u))
    cell = st.one_of(number.map(repr), odd_cells) if "cells" in faults else number.map(repr)
    arity = st.sampled_from([0] * 8 + [-1, 1]) if "ragged" in faults else st.just(0)
    name = odd_names if "names" in faults else plain_names
    lines = ["wavelength," + ",".join(draw(name) for _ in range(channels))]
    rows = draw(wavelengths)
    rows = rows + rows[:1] if "duplicates" in faults else set(rows)
    for w in sorted(rows):
        lines.append(",".join([repr(w)] + [draw(cell) for _ in range(channels + draw(arity))]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines) + "\n"
    tail = st.sampled_from([b"\xff", b"\xc3", b"\x80\xfe"]) if "tail" in faults else st.just(b"")
    return text.encode("utf-8") + draw(tail)


input_files = st.sampled_from([("--camera", 3), ("--observer", 3), ("--filter", 1)]).flatmap(
    lambda spec: st.tuples(st.just(spec[0]), csv_files(spec[1])))


def _rows(*rows: str, header: str = "wavelength,t") -> bytes:
    return ("\n".join((header,) + rows) + "\n").encode("utf-8")


_CAMERA = "wavelength,r,g,b"


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=input_files)
# The CSV inputs that once broke the contract: a filter at 1.7e308 against
# the bundled camera (the QR's column norms overflow) and a camera at 1.7e308,
# entries of 1e-13 and 1e-160, a percent filter, a non-finite cell, a file
# that does not decode, and names with a comma, a '#', edge whitespace or a
# line break, behind a byte-order mark.
@example(case=("--filter", _rows("400,1.7e308", "700,1.7e308")))
@example(case=("--camera", _rows("400,1.7e308,0,0", "550,0,1.7e308,0", "700,0,0,1.7e308",
                                 header=_CAMERA)))
@example(case=("--filter", _rows("400,1", "550,1e-13", "700,1")))
@example(case=("--filter", _rows("400,1e-160", "700,1e-160")))
@example(case=("--filter", _rows("400,50", "700,100")))
@example(case=("--filter", _rows("400,1", "550,nan", "700,1")))
@example(case=("--observer", _rows("400,1,0,0", "550,0,1,0", "700,0,0,1",
                                   header=_CAMERA) + b"\xff"))
@example(case=("--camera", b"\xef\xbb\xbf" + _rows("400,1,0,0", "550,0,1,0", "700,0,0,1",
                                                  header="wavelength, r#,g ,b")))
@example(case=("--camera", _rows("400,1,0,0", "700,0,1,1", header="wavelength,r,g,b\nb")))
@example(case=("--camera", _rows("400,1,0,0", "700,0,1,1", header="wavelength,r,\"g,b\",b")))
def test_cli_reads_any_file_or_names_it(tmp_path_factory, case):
    # Under warnings as errors, `evaluate` on a generated file exits 0 with
    # values in [0, 1], or 2 with one stderr line that names the file; no
    # exception escapes. The JSON line carries the raw values, in [0, 1]
    # up to the range check's slack.
    flag, data = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["evaluate", flag, str(path), "--json"])
    if code == 2:
        assert err.getvalue().startswith(f"error: {path}: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    assert code == 0 and err.getvalue() == ""
    *lines, payload = out.getvalue().splitlines()
    printed = [float(line.split(": ")[1]) for line in lines if "vora_value: " in line]
    raw = [v for k, v in json.loads(payload).items() if k.endswith("vora_value")]
    assert len(printed) == len(raw) == (2 if flag == "--filter" else 1)
    assert all(0.0 <= v <= 1.0 for v in printed)
    assert all(-RANGE_TOL <= v <= 1.0 + RANGE_TOL for v in raw)


# Command lines: each command on a grid of 4-61 samples, with any of its
# flags. Each flag's value is drawn from the values it takes, except for up
# to two flags per command line, drawn wild: numbers at the float64 extremes
# or not finite, negative counts and seeds, an unknown basis kind or a size
# out of range. ``--max-iters`` is capped at 15 so that no run goes to the
# default budget.
specials = st.sampled_from([5e-324, 0.0, -1.0, math.nan, math.inf, -math.inf])
wild_reals = st.one_of(st.floats(), specials)


def command_flags(n: int) -> dict:
    """Each command's flags as (values it takes, wild values) on an n-sample grid."""
    reals = (st.floats(min_value=0.0, max_value=1.0), wild_reals)
    seeds = (st.integers(min_value=0, max_value=2**32), st.integers(min_value=-1, max_value=0))
    kinds = st.sampled_from(["cosine", "gaussian"])
    # One box per command line: tau_max log-uniform from 1 down to 1e-300,
    # tau_min a fraction of it.
    box = st.shared(st.tuples(st.floats(min_value=0.0, max_value=300.0),
                              st.floats(min_value=5e-324, max_value=0.5)), key="box")
    return {
        "evaluate": {},
        "optimize": {
            "--max-iters": (st.integers(min_value=1, max_value=15),
                            st.integers(min_value=-1, max_value=0)),
            "--method": (st.sampled_from(["grad", "newton"]), st.just("gauss")),
            "--alpha": reals, "--tol-obj": reals, "--tol-grad": reals,
            "--tau-min": (box.map(lambda b: 10.0 ** -b[0] * b[1]), wild_reals),
            "--tau-max": (box.map(lambda b: 10.0 ** -b[0]), wild_reals),
            "--basis": (st.tuples(kinds, st.integers(min_value=1, max_value=min(n, 40))),
                        st.tuples(st.sampled_from(["cosine", "gaussian", "identity"]),
                                  st.integers(min_value=0, max_value=40))),
            "--init": (st.just("random"), st.just("zeros")),
            "--seed": seeds,
        },
        "check": {"--trials": (st.integers(min_value=0, max_value=3), st.just(-1)),
                  "--seed": seeds},
    }


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(["evaluate", "optimize", "check"]))
    n = draw(st.integers(min_value=4, max_value=61))
    argv = [command, f"--grid=400:{300.0 / (n - 1)!r}:{n}"]
    if draw(st.booleans()):
        argv.append("--json")
    flags = command_flags(n)[command]
    wild = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2)) if flags else set()
    for flag, (values, wild_values) in flags.items():
        if flag in wild:
            value = draw(wild_values)
        elif flag == "--max-iters" or draw(st.booleans()):
            value = draw(values)
        else:
            continue
        argv.append(f"{flag}={':'.join(map(str, value)) if flag == '--basis' else value}")
    return argv


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(argv=command_lines())
# Command lines that once broke the contract: a floor of 1e-200 and an
# unknown basis kind, and a negative count of trials and seed. A box far
# below unit peak once ended its design at the start.
@example(argv=["optimize", "--tau-min", "1e-200"])
@example(argv=["optimize", "--tau-max", "1e-300", "--tau-min", "1e-304"])
@example(argv=["optimize", "--basis", "identity:8"])
@example(argv=["check", "--trials", "-1"])
@example(argv=["check", "--seed", "-1"])
def test_cli_exits_with_a_contract_code(argv):
    # Under warnings as errors, `main(argv)` exits 0, 2, 3 or 4 and no
    # exception escapes; argparse's exit counts as the code. Exit 2 ends
    # stderr with an error line, and exit 0 prints every value in [0, 1]
    # (the JSON line's raw values up to the range check's slack).
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert "error:" in err.getvalue().splitlines()[-1]
    if code != 0:
        return
    for line in out.getvalue().splitlines():
        if line.startswith("{"):
            raw = [v for k, v in json.loads(line).items() if "vora" in k]
            assert all(-RANGE_TOL <= v <= 1.0 + RANGE_TOL for v in raw)
        elif "vora" in line.split(": ")[0]:
            assert 0.0 <= float(line.split(": ")[1]) <= 1.0
