import numpy as np
import pytest

from gatefid import (
    DegenerateSpectrumError,
    Histogram,
    KrausMap,
    QubitSpectrum,
    normal_pdf,
)
from gatefid.moments import depolarizing_kraus
from gatefid.serialize import (
    density_csv_lines,
    histogram_csv_lines,
    kraus_from_obj,
    kraus_to_obj,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)
from conftest import random_matrix


class TestMatrixJson:
    def test_round_trip(self, rng, tmp_path):
        m = random_matrix(rng, 3)
        path = tmp_path / "m.json"
        save_matrix(m, path)
        back = load_matrix(path)
        assert np.array_equal(back, m)

    def test_obj_shape(self):
        obj = matrix_to_obj(np.eye(2))
        assert obj["dim"] == 2
        assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_obj({"dim": 2, "entries": [[1, 0]]})

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 0, "entries": []})

    def test_rejects_scalar_entries(self):
        with pytest.raises(ValueError, match="pair"):
            matrix_from_obj({"dim": 1, "entries": [1.0]})

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_obj({"dim": 1, "entries": [[float("nan"), 0.0]]})


class TestKrausJson:
    def test_round_trip(self):
        k = depolarizing_kraus(0.25)
        back = kraus_from_obj(kraus_to_obj(k))
        assert isinstance(back, KrausMap)
        assert back.completeness_defect <= 1e-12
        for a, b in zip(back.operators, k.operators):
            assert np.array_equal(a, b)

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="operators"):
            kraus_from_obj({"ops": []})


class TestCsv:
    def test_histogram_lines(self):
        # 100 fidelities of the identity, all 1, over [0, 1]
        counts, edges = np.histogram(np.ones(100), 4, (0.0, 1.0))
        h = Histogram(edges=edges, counts=counts, samples=100, seed=0)
        lines = histogram_csv_lines(h)
        assert lines[0] == "bin_lo,bin_hi,count,density"
        assert len(lines) == 5
        cells = lines[-1].split(",")
        assert float(cells[1]) == 1.0
        assert int(cells[2]) == 100
        # density = count / (samples * width)
        assert float(cells[3]) == pytest.approx(100 / (100 * 0.25))

    def test_density_lines_avoid_singular_endpoint(self):
        d = normal_pdf(QubitSpectrum.ordered(0.5, 1.0))
        lines = density_csv_lines(d, 16)
        assert lines[0] == "f,density"
        first_f, first_p = map(float, lines[1].split(","))
        assert first_f > d.support()[0]
        assert np.isfinite(first_p)

    def test_density_grid_inside_narrow_support(self):
        # Support width 8e-13, below the 1e-9 nudge off the anchor: every
        # row must still lie inside the support, ascending, with density > 0.
        d = normal_pdf(QubitSpectrum.ordered(1.0, complex(0.9999999999999, 1e-7)))
        lo, hi = d.support()
        assert 0.0 < hi - lo < 1e-9
        rows = np.array([list(map(float, r.split(","))) for r in density_csv_lines(d, 64)[1:]])
        f, dens = rows.T
        assert (np.diff(f) > 0).all()
        assert lo < f[0] and f[-1] == hi
        assert (dens > 0).all() and np.isfinite(dens).all()

    def test_density_first_row_clears_the_anchor_by_an_ulp(self):
        # diag(1, e^{1e-7 i}): a support 22 ulps wide, where a thousandth of
        # the width is below an ulp of f0 and would leave the first row at
        # f0, with density inf.
        d = normal_pdf(QubitSpectrum.ordered(1.0, np.exp(1e-7j)))
        lo, hi = d.support()
        assert 4 * np.spacing(hi) < hi - lo < 1e3 * np.spacing(lo)
        rows = np.array([list(map(float, r.split(","))) for r in density_csv_lines(d, 8)[1:]])
        f, dens = rows.T
        assert f[0] == np.nextafter(lo, 1.0) and (np.diff(f) > 0).all()
        assert np.isfinite(dens).all()

    @pytest.mark.parametrize(
        "spectrum",
        [
            # Equal moduli 1, 0.7 and 0.3, eigenvalues 1e-8 or 1e-9 apart: the
            # supports span 0, 0 and 3 ulps, below float resolution.
            (0.9210609940028851 + 0.38941834230865052j, 0.92106099010870168 + 0.38941835151926046j),
            (-0.29130279467597386 + 0.63650819461650865j, -0.29130278558299966 + 0.63650819877797715j),
            (0.27631829820086551 + 0.11682550269259515j, 0.27631829781144718 + 0.11682550361365614j),
        ],
    )
    def test_density_lines_refuse_sub_resolution_support(self, spectrum):
        d = normal_pdf(QubitSpectrum.ordered(*spectrum))
        with pytest.raises(DegenerateSpectrumError, match="point mass") as err:
            density_csv_lines(d, 8)
        assert err.value.point_mass == d.support()[1]

    @pytest.mark.parametrize("spectrum", [(0.5, 1.0), (0.7 * np.exp(0.4j), 0.8), (0.7, 0.700001)])
    def test_density_grid_unchanged_on_wide_supports(self, spectrum):
        # Supports at least 1e-6 wide keep the 1e-9 nudge, byte for byte.
        d = normal_pdf(QubitSpectrum.ordered(*spectrum))
        lo, hi = d.support()
        assert hi - lo >= 1e-6
        grid = np.linspace(lo + 1e-9, hi, 32)
        f = [r.split(",")[0] for r in density_csv_lines(d, 32)[1:]]
        assert f == [repr(float(x)) for x in grid]
