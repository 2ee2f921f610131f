"""Spectral parsing, resampling, and container validation."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import cie_csv_text, cie_observer
from vorafilter import (
    DEFAULT_GRID,
    BadBasisSpec,
    BasisSet,
    DuplicateWavelength,
    FilterSpectrum,
    InsufficientCoverage,
    MalformedCsv,
    NonPositiveFilter,
    RankDeficient,
    SensorSet,
    UnsortedWavelength,
    WavelengthGrid,
    format_spectral_csv,
    gaussian_camera,
    gradient_in_basis,
    load_sensor_set,
    make_basis,
    parse_spectral_csv,
    resample_to_grid,
)


class TestWavelengthGrid:
    def test_default_is_visible_spectrum_at_10nm(self):
        assert DEFAULT_GRID.start_nm == 400.0
        assert DEFAULT_GRID.step_nm == 10.0
        assert DEFAULT_GRID.count == 31
        assert DEFAULT_GRID.end_nm == 700.0
        lam = DEFAULT_GRID.wavelengths
        assert lam.shape == (31,)
        assert lam[0] == 400.0 and lam[-1] == 700.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, 0.0, 31)
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, -5.0, 31)

    def test_rejects_non_finite_fields(self):
        for start, step in ((np.nan, 10.0), (np.inf, 10.0), (400.0, np.nan),
                            (400.0, np.inf)):
            with pytest.raises(ValueError):
                WavelengthGrid(start, step, 31)

    def test_rejects_tiny_count(self):
        with pytest.raises(ValueError):
            WavelengthGrid(400.0, 10.0, 3)

    def test_rejects_non_integer_count(self):
        for count in (31.5, 31.0, np.nan, np.inf, "31"):
            with pytest.raises(ValueError, match="count"):
                WavelengthGrid(400.0, 10.0, count)
        assert WavelengthGrid(400.0, 10.0, np.int64(31)) == DEFAULT_GRID

    def test_rejects_bool_count(self):
        # isinstance(True, int) holds, but a bool is not a sample count.
        for count in (True, False):
            with pytest.raises(ValueError, match="count"):
                WavelengthGrid(400.0, 10.0, count)


class TestParseSpectralCsv:
    def test_direct_parse(self):
        table = parse_spectral_csv(
            "wavelength,x,y,z\n400,0.01,0.0,0.07\n410,0.04,0.001,0.2", 3)
        assert table.values.shape == (2, 3)
        assert table.channel_names == ("x", "y", "z")
        assert table.wavelengths.tolist() == [400.0, 410.0]

    def test_duplicate_wavelength(self):
        with pytest.raises(DuplicateWavelength):
            parse_spectral_csv("wavelength,t\n400,1.0\n400,0.9", 1)

    def test_unsorted_wavelength(self):
        with pytest.raises(UnsortedWavelength):
            parse_spectral_csv("wavelength,t\n410,1.0\n400,0.9", 1)

    def test_bad_header_name(self):
        with pytest.raises(MalformedCsv):
            parse_spectral_csv("lambda,t\n400,1.0", 1)

    def test_wrong_arity(self):
        with pytest.raises(MalformedCsv):
            parse_spectral_csv("wavelength,a,b\n400,1.0,2.0", 3)
        with pytest.raises(MalformedCsv):
            parse_spectral_csv("wavelength,t\n400,1.0,9.0", 1)

    def test_non_numeric_cell_reports_line(self):
        with pytest.raises(MalformedCsv, match="line 3"):
            parse_spectral_csv("wavelength,t\n400,1.0\n410,oops", 1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_cell_reports_line(self, cell, column):
        row = ["410", "0.5", "0.6"]
        row[column] = cell
        text = "wavelength,a,b\n400,0.1,0.2\n# comment\n" + ",".join(row) + "\n"
        with pytest.raises(MalformedCsv, match=r"^line 4: non-finite value$"):
            parse_spectral_csv(text, 2)

    def test_comments_blanks_and_crlf(self):
        text = "# a comment\r\nwavelength,t\r\n\r\n400,0.5\r\n# mid\r\n410,0.6\r\n"
        table = parse_spectral_csv(text, 1)
        assert table.wavelengths.tolist() == [400.0, 410.0]
        assert table.values[:, 0].tolist() == [0.5, 0.6]

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = "wavelength,x,y,z\n400,0.01,0.0,0.07\n410,0.04,0.001,0.2"
        plain = parse_spectral_csv(text, 3)
        marked = parse_spectral_csv("\ufeff" + text, 3)
        assert marked.channel_names == plain.channel_names
        assert np.array_equal(marked.values, plain.values)
        with pytest.raises(MalformedCsv):
            parse_spectral_csv("\ufeff\ufeff" + text, 3)
        path = tmp_path / "bom.csv"
        path.write_text(cie_csv_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        loaded = load_sensor_set(path, DEFAULT_GRID)
        assert loaded.responses.shape == (DEFAULT_GRID.count, 3)

    def test_cie_fixture_has_61_rows(self):
        table = parse_spectral_csv(cie_csv_text(), 3)
        assert table.wavelengths.shape == (61,)
        assert table.values.shape == (61, 3)
        assert table.wavelengths[0] == 400.0
        assert table.wavelengths[-1] == 700.0

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        w = np.sort(rng.uniform(380.0, 720.0, 40))
        v = rng.standard_normal((40, 3)) * rng.uniform(1e-8, 1e6)
        text = format_spectral_csv(w, v, ("a", "b", "c"))
        again = parse_spectral_csv(text, 3)
        assert np.array_equal(again.wavelengths, w)
        assert np.array_equal(again.values, v)
        assert format_spectral_csv(again.wavelengths, again.values,
                                   ("a", "b", "c")) == text

    def test_format_rejects_a_name_per_column_mismatch(self):
        # One name for two value columns would write a header that
        # parse_spectral_csv rejects.
        with pytest.raises(ValueError, match="channel names"):
            format_spectral_csv(np.array([400.0, 410.0]), np.ones((2, 2)), ("a",))

    def test_format_round_trips_names_or_rejects_them(self):
        # A comma or a line break in a name would split the header into
        # more columns or lines than the parser accepts, and the whitespace
        # around a name would be stripped.
        wavelengths, values = np.array([400.0, 410.0]), np.array([[0.5, 1.0], [0.25, 2.0]])
        for bad in ("a,b", "a\nb", "a\r\nb", "a\u2028b", "a\n", "  a", "b ", "\ta"):
            with pytest.raises(ValueError, match="channel name"):
                format_spectral_csv(wavelengths, values, (bad, "c"))
        names = ("R (nm^-1)", "g; 2")
        table = parse_spectral_csv(format_spectral_csv(wavelengths, values, names), 2)
        assert table.channel_names == names
        assert np.array_equal(table.values, values)


class TestResample:
    def test_midpoint_of_linear_segment(self):
        grid = WavelengthGrid(400.0, 10.0, 4)
        out = resample_to_grid(np.array([400.0, 420.0, 440.0]),
                               np.array([0.0, 1.0, 1.0]), grid)
        assert out[1, 0] == 0.5

    def test_passthrough_when_source_on_grid(self):
        grid = WavelengthGrid(400.0, 10.0, 5)
        values = np.array([[0.1], [0.2], [0.4], [0.8], [1.6]])
        out = resample_to_grid(grid.wavelengths, values, grid)
        assert np.array_equal(out, values)

    def test_idempotent_on_own_grid(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 2, (DEFAULT_GRID.count, 3))
        once = resample_to_grid(DEFAULT_GRID.wavelengths, values, DEFAULT_GRID)
        twice = resample_to_grid(DEFAULT_GRID.wavelengths, once, DEFAULT_GRID)
        assert np.array_equal(once, twice)
        assert np.array_equal(once, values)

    def test_5nm_cie_resampled_matches_10nm_rows(self):
        table = parse_spectral_csv(cie_csv_text(), 3)
        out = resample_to_grid(table.wavelengths, table.values, DEFAULT_GRID)
        # the 10 nm grid points are every second row of the 5 nm table
        assert np.array_equal(out, table.values[::2])

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="no source samples"):
            resample_to_grid(np.array([]), np.array([]), DEFAULT_GRID)

    def test_non_finite_source_rejected(self):
        # Interpolation would spread one NaN over every grid row.
        with pytest.raises(ValueError, match="finite"):
            resample_to_grid(np.array([390.0, 800.0]), np.array([[1.0], [np.nan]]),
                             DEFAULT_GRID)
        with pytest.raises(ValueError, match="finite"):
            resample_to_grid(np.array([390.0, np.inf]), np.ones(2), DEFAULT_GRID)

    def test_insufficient_coverage(self):
        with pytest.raises(InsufficientCoverage):
            resample_to_grid(np.array([405.0, 500.0, 700.0]),
                             np.zeros((3, 1)), DEFAULT_GRID)
        with pytest.raises(InsufficientCoverage):
            resample_to_grid(np.array([400.0, 500.0, 690.0]),
                             np.zeros((3, 1)), DEFAULT_GRID)


class TestSensorSet:
    def test_load_cie_fixture(self, tmp_path):
        path = tmp_path / "cie.csv"
        path.write_text(cie_csv_text(), encoding="utf-8")
        sensors = load_sensor_set(path)
        assert sensors.channel_names == ("x", "y", "z")
        assert sensors.responses.shape == (31, 3)

    @pytest.mark.parametrize("n", [31, 61, 301, 1201])
    def test_cie_observer_samples_the_bundled_table(self, n):
        # Every tier-1 observer comes from cie_observer: on the n-sample
        # grid it holds the table's 5 nm rows exactly and is linear between.
        table = parse_spectral_csv(cie_csv_text(), 3)
        observer = cie_observer(n)
        lam = observer.grid.wavelengths
        assert observer.channel_names == ("x", "y", "z")
        assert lam[0] == 400.0 and lam[-1] == 700.0
        if n == DEFAULT_GRID.count:
            assert observer.grid == DEFAULT_GRID
        rows = np.searchsorted(table.wavelengths, lam)
        on_row = table.wavelengths[np.minimum(rows, 60)] == lam
        assert np.count_nonzero(on_row) == min(n, 61)
        assert np.array_equal(observer.responses[on_row], table.values[rows[on_row]])
        left, right = rows[~on_row] - 1, rows[~on_row]
        t = ((lam[~on_row] - table.wavelengths[left]) / 5.0)[:, None]
        line = (1.0 - t) * table.values[left] + t * table.values[right]
        assert np.max(np.abs(observer.responses[~on_row] - line), initial=0.0) <= 1e-15

    def test_identical_channels_rank_deficient(self, tmp_path):
        lam = DEFAULT_GRID.wavelengths
        col = np.exp(-0.5 * ((lam - 550.0) / 40.0) ** 2)
        text = format_spectral_csv(lam, np.column_stack([col, col, col]),
                                   ("a", "b", "c"))
        path = tmp_path / "flat.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RankDeficient):
            load_sensor_set(path)

    def test_gaussian_camera_is_rank_3(self):
        cam = gaussian_camera()
        s = np.linalg.svd(cam.responses, compute_uv=False)
        tol = s[0] * 31 * np.finfo(np.float64).eps * 1e3
        assert s[2] > tol
        # The set builds its orthonormal basis of the responses.
        assert cam.basis.shape == (31, 3)
        assert np.allclose(cam.basis.T @ cam.basis, np.eye(3), atol=1e-14)
        assert np.allclose(cam.basis @ (cam.basis.T @ cam.responses), cam.responses,
                           atol=1e-14)

    def test_negative_responses_allowed(self):
        rng = np.random.default_rng(3)
        responses = rng.standard_normal((31, 3))
        sensors = SensorSet(grid=DEFAULT_GRID, responses=responses)
        assert (sensors.responses < 0).any()

    def test_responses_are_immutable(self, camera):
        with pytest.raises(ValueError):
            camera.responses[0, 0] = 2.0

    def test_nonfinite_rejected(self):
        bad = np.ones((31, 3))
        bad[4, 1] = np.nan
        with pytest.raises(ValueError):
            SensorSet(grid=DEFAULT_GRID, responses=bad)


class TestFilterSpectrum:
    def test_ones_filter(self):
        filt = FilterSpectrum.ones(DEFAULT_GRID)
        assert np.array_equal(filt.transmittance, np.ones(31))

    def test_nonpositive_rejected(self):
        values = np.full(31, 0.5)
        values[7] = 0.0
        with pytest.raises(NonPositiveFilter):
            FilterSpectrum(grid=DEFAULT_GRID, transmittance=values,
                           tau_min=1e-12)

    def test_box_enforced(self):
        with pytest.raises(ValueError):
            FilterSpectrum(grid=DEFAULT_GRID, transmittance=np.full(31, 2.0))
        with pytest.raises(ValueError):
            FilterSpectrum(grid=DEFAULT_GRID, transmittance=np.full(31, 1e-6))

    def test_custom_box_accepts_wider_range(self):
        filt = FilterSpectrum(grid=DEFAULT_GRID, transmittance=np.full(31, 5.0),
                              tau_max=10.0)
        assert filt.transmittance[0] == 5.0

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            FilterSpectrum(grid=DEFAULT_GRID, transmittance=np.ones(31),
                           tau_min=0.0)


class TestFilterIO:
    def test_write_then_load_round_trips(self, tmp_path):
        from vorafilter import load_filter_spectrum, write_filter_csv

        rng = np.random.default_rng(17)
        filt = FilterSpectrum(grid=DEFAULT_GRID,
                              transmittance=rng.uniform(0.2, 1.0, 31))
        path = tmp_path / "filt.csv"
        write_filter_csv(path, filt)
        again = load_filter_spectrum(path)
        assert np.array_equal(again.transmittance, filt.transmittance)
        assert again.grid == filt.grid

    def test_loaded_filter_respects_box(self, tmp_path):
        from vorafilter import load_filter_spectrum, write_filter_csv

        filt = FilterSpectrum(grid=DEFAULT_GRID,
                              transmittance=np.full(31, 0.5))
        path = tmp_path / "filt.csv"
        write_filter_csv(path, filt)
        with pytest.raises(ValueError):
            load_filter_spectrum(path, tau_min=0.6, tau_max=1.0)


G = DEFAULT_GRID


@pytest.mark.parametrize("call, error, message", [
    (lambda cam, obs: BasisSet(G, np.ones((30, 2))),
     ValueError, "basis must be 31 x k, got (30, 2)"),
    (lambda cam, obs: BasisSet(G, np.ones((31, 0))),
     BadBasisSpec, "basis size k=0 outside [1, n]"),
    (lambda cam, obs: gradient_in_basis(cam, obs, make_basis("cosine", 8, G), np.ones(7)),
     ValueError, "coeffs must have length 8, got (7,)"),
    (lambda cam, obs: SensorSet(G, np.ones((31, 2))),
     ValueError, "responses must be 31x3, got (31, 2)"),
    (lambda cam, obs: SensorSet(G, cam.responses, ("r", "g")),
     ValueError, "exactly three channel names required"),
    (lambda cam, obs: FilterSpectrum(G, np.ones(30)),
     ValueError, "transmittance must have length 31, got (30,)"),
    (lambda cam, obs: parse_spectral_csv("# a comment\n\n", expected_channels=1),
     MalformedCsv, "no header row found"),
    (lambda cam, obs: parse_spectral_csv("wavelength,t\n", expected_channels=1),
     MalformedCsv, "no data rows found"),
    (lambda cam, obs: format_spectral_csv(np.arange(3.0), np.ones(2), ("t",)),
     ValueError, "values rows must match wavelengths"),
    (lambda cam, obs: resample_to_grid(np.arange(3.0), np.ones(2), G),
     ValueError, "values rows must match wavelengths"),
    (lambda cam, obs: resample_to_grid(np.array([400.0, 700.0, 550.0]), np.ones(3), G),
     UnsortedWavelength, "source wavelengths must be strictly increasing"),
], ids=["basis-shape", "basis-size", "coeffs-length", "responses-shape",
        "channel-names", "transmittance-length", "csv-no-header", "csv-no-rows",
        "format-rows", "resample-rows", "resample-unsorted"])
def test_public_input_guard_raises_typed_and_named(camera, observer, call, error, message):
    with pytest.raises(error) as raised:
        call(camera, observer)
    assert type(raised.value) is error
    assert str(raised.value) == message
