import cmath

import numpy as np
import pytest

from gatefid import (
    DegenerateSpectrumError,
    Histogram,
    QubitSpectrum,
    avg_fidelity,
    compare_histogram,
    fourth_moment_general,
    mc_sample,
    normal_pdf,
    quadrature_moments,
)
from gatefid.moments import InvariantError
from gatefid.verify import _fit_bounds, _pdf_cdf_gap
from conftest import haar_states, reference_overlap

L0 = 0.7 * np.exp(1j * np.pi / 8)
L1 = 0.8 * np.exp(1j * 4 * np.pi / 5)
REFERENCE = QubitSpectrum.ordered(L0, L1)


def random_spectrum(rng, min_sep=0.05):
    while True:
        z = rng.uniform(-1, 1, 4)
        l0, l1 = complex(z[0], z[1]), complex(z[2], z[3])
        if max(abs(l0), abs(l1)) <= 1.0 and abs(l0 - l1) >= min_sep:
            return QubitSpectrum.ordered(l0, l1)


def histogram_over(m, bins, samples, seed, value_range):
    """Histogram of the seed's sampled fidelities of ``m`` over a given range."""
    f = np.abs(reference_overlap(haar_states(m.shape[0], samples, seed), m)) ** 2
    counts, edges = np.histogram(f, bins, value_range)
    return Histogram(edges=edges, counts=counts, samples=samples, seed=seed)


def unit_spectrum(phi0, phi1):
    return QubitSpectrum.ordered(cmath.exp(1j * phi0), cmath.exp(1j * phi1))


def unitary_law(phi0, phi1, f):
    """1 / (2 sin(D/2) sqrt(f - cos^2(D/2))) on [cos^2(D/2), 1], D = phi1 - phi0."""
    delta = abs(phi1 - phi0) % (2 * np.pi)
    half = 0.5 * min(delta, 2 * np.pi - delta)
    return 0.5 / (np.sin(half) * np.sqrt(f - np.cos(half) ** 2))


def pieces(dist):
    return dist.as_dict()["pieces"]


def ppf(dist, u):
    """Inverse CDF: s = s0 + u d is uniform on the segment, and f = f0 + s^2."""
    s = dist.s0 + u * dist.d
    return dist.f0 + s * s


def total_variation_distance(d1, d2):
    """Exact total variation distance (1/2) integral |p1 - p2| df.

    The integrand has constant sign between consecutive breakpoints once the
    piece edges of both densities and the per-interval crossing points are
    included, so each stretch integrates exactly via CDF differences.
    """
    both = pieces(d1) + pieces(d2)
    breaks = sorted({p["f_lo"] for p in both} | {p["f_hi"] for p in both})
    refined = []
    for x, y in zip(breaks, breaks[1:]):
        refined.append(x)
        mid = 0.5 * (x + y)
        c1, c2 = coeff_at(d1, mid), coeff_at(d2, mid)
        if c1 > 0 and c2 > 0 and c1 != c2:
            cross = (c1 * c1 * d2.f0 - c2 * c2 * d1.f0) / (c1 * c1 - c2 * c2)
            if x < cross < y:
                refined.append(cross)
    refined.append(breaks[-1])
    total = 0.0
    for x, y in zip(refined, refined[1:]):
        total += abs((d1.cdf(y) - d1.cdf(x)) - (d2.cdf(y) - d2.cdf(x)))
    return 0.5 * total


def coeff_at(dist, f):
    for p in pieces(dist):
        if p["f_lo"] <= f < p["f_hi"]:
            return p["c"]
    return 0.0


class TestUnitaryPdf:
    def test_opposite_phases(self):
        d = normal_pdf(QubitSpectrum.ordered(1.0, -1.0))
        assert d.support() == (pytest.approx(0.0, abs=1e-30), 1.0)
        (piece,) = pieces(d)
        assert piece["c"] == pytest.approx(0.5, abs=1e-15)
        assert d.pdf(0.25) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn(self):
        d = normal_pdf(QubitSpectrum.ordered(1.0, 1j))
        lo, hi = d.support()
        assert lo == pytest.approx(0.5, abs=1e-15)
        assert hi == 1.0
        assert pieces(d)[0]["c"] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0])
    def test_support_floor_is_squared_half_angle_cosine(self, delta):
        d = normal_pdf(unit_spectrum(0.2, 0.2 + delta))
        reduced = min(delta % (2 * np.pi), 2 * np.pi - delta % (2 * np.pi))
        assert d.support()[0] == pytest.approx(np.cos(reduced / 2) ** 2, abs=1e-12)
        assert _pdf_cdf_gap(d) <= 1e-10
        lo, hi = d.support()
        grid = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 50)
        want = unitary_law(0.2, 0.2 + delta, grid)
        assert np.abs(d.pdf(grid) / want - 1.0).max() <= 1e-9

    def test_degenerate_phases_rejected(self):
        with pytest.raises(DegenerateSpectrumError) as err:
            normal_pdf(unit_spectrum(0.3, 0.3 + 2 * np.pi))
        assert err.value.point_mass == 1.0


class TestClassifyCase:
    def test_one_piece_example(self):
        assert normal_pdf(QubitSpectrum(0.5, 1.0)).case == "one_piece"

    def test_reference_is_two_piece(self):
        # |l0 - l1/2| = 0.971 >= |l1|/2 = 0.4
        assert abs(L0 - L1 / 2) == pytest.approx(0.9708, abs=1e-3)
        assert normal_pdf(REFERENCE).case == "two_piece"

    def test_unit_moduli(self):
        s = QubitSpectrum.ordered(np.exp(1j * np.pi / 8), np.exp(1j * 4 * np.pi / 5))
        assert normal_pdf(s).case == "unitary_like"

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError) as err:
            normal_pdf(QubitSpectrum(0.5j, 0.5j))
        assert err.value.point_mass == pytest.approx(0.25)

    def test_collinear_shrinkage_is_one_piece(self):
        for r in (0.1, 0.4, 0.9):
            s = QubitSpectrum.ordered(r * L1, L1)
            assert normal_pdf(s).case == "one_piece"


class TestNormalPdf:
    def test_half_and_one(self):
        d = normal_pdf(QubitSpectrum(0.5, 1.0))
        assert d.case == "one_piece"
        assert d.f0 == 0.0
        (piece,) = pieces(d)
        assert (piece["f_lo"], piece["f_hi"]) == (0.25, 1.0)
        assert piece["c"] == pytest.approx(1.0)
        assert d.pdf(0.49) == pytest.approx(1 / 0.7, abs=1e-12)
        assert _pdf_cdf_gap(d) <= 1e-10

    def test_reference_two_piece(self):
        d = normal_pdf(REFERENCE)
        assert d.case == "two_piece"
        assert d.f0 == pytest.approx(0.1329208978730848, abs=1e-12)
        lower, upper = pieces(d)
        assert lower["f_lo"] == pytest.approx(d.f0)
        assert lower["f_hi"] == pytest.approx(0.49)
        assert upper["f_hi"] == pytest.approx(0.64)
        assert lower["c"] == pytest.approx(2 * upper["c"])
        assert quadrature_moments(d).mean == pytest.approx(0.2791336, abs=1e-6)

    def test_projector_map(self):
        d = normal_pdf(QubitSpectrum(0.0, 1.0))
        assert d.f0 == 0.0
        (piece,) = pieces(d)
        assert piece["c"] == pytest.approx(0.5)
        assert (piece["f_lo"], piece["f_hi"]) == (0.0, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            normal_pdf(QubitSpectrum(1.0, 1.0))

    @pytest.mark.parametrize("scale", [2.0**-300, 2.0**-60, 1.0, 2.0**60])
    def test_degeneracy_is_relative(self, scale):
        # The same spectra, in any units: a gap of 1e-13 |l1| is a point
        # mass, a gap of 1e-11 |l1| is a law whose support scales by scale^2.
        with pytest.raises(DegenerateSpectrumError):
            normal_pdf(QubitSpectrum.ordered(0.5 * scale, (0.5 + 1e-13) * scale))
        d = normal_pdf(QubitSpectrum.ordered(0.5 * scale, (0.5 + 1e-11) * scale))
        unit = normal_pdf(QubitSpectrum.ordered(0.5, 0.5 + 1e-11))
        assert d.support() == tuple(scale * scale * f for f in unit.support())

    @pytest.mark.parametrize("l0,l1", [(1e155, 1e155j), (0.5, 1e160), (1e200, 1e200)])
    def test_unrepresentable_spectrum_raises(self, l0, l1):
        with pytest.raises(InvariantError, match="not representable"):
            normal_pdf(QubitSpectrum.ordered(l0, l1))

    @pytest.mark.parametrize("scale", [1e77, 1e100, 1e150])
    def test_unrepresentable_second_moment_raises(self, scale):
        # The law exists, but E f^2 near scale^4 is past float range: a typed
        # error, not an OverflowError or a NaN variance.
        d = normal_pdf(QubitSpectrum.ordered(scale, 2j * scale))
        with pytest.raises(InvariantError, match="second moment is not representable"):
            quadrature_moments(d)

    def test_mass_normalized_for_random_spectra(self, rng):
        for _ in range(50):
            d = normal_pdf(random_spectrum(rng))
            assert _pdf_cdf_gap(d) <= 1e-10

    @pytest.mark.parametrize("sep", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_near_degenerate_spectra_stay_normalized(self, sep):
        # Radial and angular approaches to degeneracy: the cdf's total mass
        # and the quadrature moments must not lose accuracy to cancellation.
        radial = QubitSpectrum.ordered(0.7, 0.7 + sep)
        angular = QubitSpectrum.ordered(0.9, 0.9 * cmath.exp(1j * sep))
        for s in (radial, angular):
            d = normal_pdf(s)
            assert abs(d.cdf(d.support()[1]) - 1.0) <= 1e-12
            rep = quadrature_moments(d)
            m = np.diag([s.lambda0, s.lambda1])
            assert abs(rep.mean - avg_fidelity(m)) <= 1e-9
            assert abs(rep.second_moment - fourth_moment_general(m)) <= 1e-9

    def test_singularity_scaling(self):
        d = normal_pdf(REFERENCE)
        c = pieces(d)[0]["c"]
        for k in range(4, 9):
            eps = 10.0**-k
            assert d.pdf(d.f0 + eps) == pytest.approx(c / np.sqrt(eps), rel=1e-6)

    def test_pdf_infinite_at_anchor(self):
        d = normal_pdf(REFERENCE)
        assert d.pdf(d.f0) == np.inf

    def test_pdf_zero_outside_support(self):
        d = normal_pdf(REFERENCE)
        assert d.pdf(0.05) == 0.0
        assert d.pdf(0.9) == 0.0

    def test_unitary_reduction(self, rng):
        # Interior points: margins keep the inverse-sqrt singularity from
        # amplifying one-ulp anchor differences between the two routes.
        count = 0
        while count < 20:
            p0, p1 = rng.uniform(-np.pi, np.pi, 2)
            if abs(cmath.exp(1j * p0) - cmath.exp(1j * p1)) < 0.5:
                continue
            count += 1
            general = normal_pdf(unit_spectrum(p0, p1))
            assert general.case == "unitary_like"
            lo, hi = general.support()
            width = hi - lo
            grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 100)
            assert np.abs(general.pdf(grid) - unitary_law(p0, p1, grid)).max() <= 1e-10


class TestCdf:
    def test_below_support(self):
        assert normal_pdf(REFERENCE).cdf(0.0) == 0.0

    def test_at_support_max(self):
        assert abs(normal_pdf(REFERENCE).cdf(0.64) - 1.0) <= 1e-12

    def test_opposite_phase_quarter(self):
        # integral of 1/(2 sqrt(f)) up to 1/4 is sqrt(1/4) = 1/2
        d = normal_pdf(QubitSpectrum.ordered(1.0, -1.0))
        assert d.cdf(0.25) == pytest.approx(0.5, abs=1e-14)

    def test_monotone(self, rng):
        d = normal_pdf(random_spectrum(rng))
        grid = np.linspace(-0.1, 1.1, 400)
        vals = d.cdf(grid)
        assert (np.diff(vals) >= -1e-15).all()


class TestQuadratureMoments:
    def test_opposite_phases_mean_third(self):
        rep = quadrature_moments(normal_pdf(QubitSpectrum.ordered(1.0, -1.0)))
        assert rep.mean == pytest.approx(1 / 3, abs=1e-14)

    def test_reference_matches_trace_formula(self):
        rep = quadrature_moments(normal_pdf(REFERENCE))
        assert rep.mean == pytest.approx(avg_fidelity(np.diag([L0, L1])), abs=1e-9)

    def test_near_identity_limit(self):
        eps = 1e-3
        rep = quadrature_moments(normal_pdf(QubitSpectrum.ordered(1.0, cmath.exp(1j * eps))))
        assert abs(rep.mean - 1.0) <= 1e-5

    def test_consistency_for_random_spectra(self, rng):
        for _ in range(50):
            s = random_spectrum(rng)
            d = normal_pdf(s)
            rep = quadrature_moments(d)
            m = np.diag([s.lambda0, s.lambda1])
            assert abs(rep.mean - avg_fidelity(m)) <= 1e-9
            assert abs(rep.second_moment - fourth_moment_general(m)) <= 1e-9


class TestCaseBoundary:
    def _spectrum_at(self, distance):
        # |l0 - l1/2| - 1/2 = distance along the path l1 = 1, l0 = 0.6 e^{iD}
        a = 0.6
        cos_d = (a * a - ((0.5 + distance) ** 2 - 0.25)) / a
        return QubitSpectrum.ordered(a * cmath.exp(1j * np.arccos(cos_d)), 1.0)

    def test_formula_continuity(self):
        d_plus = normal_pdf(self._spectrum_at(+1e-8))
        d_minus = normal_pdf(self._spectrum_at(-1e-8))
        assert d_plus.case == "two_piece"
        assert d_minus.case == "one_piece"
        assert total_variation_distance(d_plus, d_minus) <= 1e-6

    def test_anchor_approaches_lower_modulus(self):
        d_plus = normal_pdf(self._spectrum_at(+1e-8))
        assert abs(d_plus.f0 - 0.36) <= 1e-7
        lower = pieces(d_plus)[0]
        assert d_plus.cdf(lower["f_hi"]) - d_plus.cdf(lower["f_lo"]) <= 1e-6

    def test_exact_boundary_assigned_two_piece(self):
        # cos(D) = |l0|/|l1| makes |l0 - l1/2| = |l1|/2 exactly
        s = QubitSpectrum.ordered(0.5 * cmath.exp(1j * np.arccos(0.5)), 1.0)
        assert normal_pdf(s).case in ("two_piece", "one_piece")
        cond = abs(s.lambda0 - 0.5 * s.lambda1) - 0.5 * abs(s.lambda1)
        if cond >= 0:
            assert normal_pdf(s).case == "two_piece"


class TestNearUnitModulus:
    # Eigenvalues sep apart in phase, one on the unit circle and one gap
    # inside it. Im(l0 conj(l1)) cancels here, and at gap 1e-12 the
    # unitary_like label holds while the segment misses the foot of the
    # perpendicular (s0 > 0): the law must still be the sampled one.
    @pytest.mark.parametrize("gap,case", [(1e-12, "unitary_like"), (1e-11, "one_piece")])
    @pytest.mark.parametrize("sep", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_support_and_cdf_match_samples(self, sep, gap, case):
        l0, l1 = (1 - gap) * cmath.exp(0.1j), cmath.exp(1j * (0.1 + sep))
        d = normal_pdf(QubitSpectrum.ordered(l0, l1))
        assert d.case == case and d.s0 > 0
        samples = 200_000
        h, _ = mc_sample(np.diag([l0, l1]), 200, samples, seed=17)
        lo, hi = d.support()
        slack = 16 * np.finfo(float).eps  # rounding of the sampled f near 1
        assert lo - slack <= h.edges[0] and h.edges[-1] <= hi + slack
        # Kolmogorov-Smirnov gap at the bin edges, against its 1% level.
        sampled = np.cumsum(h.counts) / samples
        assert np.abs(d.cdf(h.edges[1:]) - sampled).max() <= 1.63 / np.sqrt(samples)


class TestCompareHistogram:
    def test_synthetic_inverse_cdf_sampling(self):
        d = normal_pdf(REFERENCE)
        rng = np.random.default_rng(8)
        values = np.array([ppf(d, u) for u in rng.uniform(0, 1, 40_000)])
        counts, edges = np.histogram(values, bins=40, range=d.support())
        h = Histogram(edges=edges, counts=counts, samples=40_000, seed=8)
        cmp_ = compare_histogram(d, h)
        assert 0.4 <= cmp_.chi_square / cmp_.dof <= 1.5

    def test_reference_mc_agreement(self):
        d = normal_pdf(REFERENCE)
        m = np.diag([L0, L1])
        h, _ = mc_sample(m, 50, 200_000, seed=6)
        cmp_ = compare_histogram(d, h)
        assert cmp_.chi_square / cmp_.dof < 1.5
        assert cmp_.dof == cmp_.bins_compared - 1

    def test_random_spectra_mc_agreement(self):
        # chi2/dof stays below 1.6, as in the reference calibration. The
        # largest bin pull stays under its bound at a false-alarm rate of
        # 1e-4 per spectrum (verify's histogram test). It replaces the
        # calibration's density sup-norm, scaled by support width and
        # sqrt(bins/samples), under 5.0: over 200 seed offsets of this test
        # on correct code, that bound failed 36 times with one stream per
        # seed and 40 times with per-batch seeds.
        rng = np.random.default_rng(314)
        for i in range(10):
            s = random_spectrum(rng)
            d = normal_pdf(s)
            m = np.diag([s.lambda0, s.lambda1])
            h, _ = mc_sample(m, 30, 100_000, seed=500 + i)
            cmp_ = compare_histogram(d, h)
            assert cmp_.chi_square / cmp_.dof < 1.6
            assert cmp_.max_pull <= _fit_bounds(cmp_, 1e-4)[1]

    def test_opposite_phase_histogram(self):
        # diag(1, e^{i pi}) has density 1/(2 sqrt(f)) on [0, 1].
        d = normal_pdf(QubitSpectrum.ordered(1.0, -1.0))
        h, _ = mc_sample(np.diag([1.0, -1.0]), 40, 100_000, seed=13)
        cmp_ = compare_histogram(d, h)
        assert cmp_.chi_square / cmp_.dof < 1.5

    def test_wrong_spectrum_negative_control(self):
        m = np.diag([L0, L1])
        wrong = QubitSpectrum.ordered(
            0.75 * np.exp(1j * np.pi / 8), 0.8 * np.exp(1j * 4.2 * np.pi / 5)
        )
        d_wrong = normal_pdf(wrong)
        h = histogram_over(m, 50, 100_000, 99, d_wrong.support())
        cmp_ = compare_histogram(d_wrong, h)
        assert cmp_.chi_square / cmp_.dof > 3.0

    def test_rejects_out_of_support_histogram(self):
        d = normal_pdf(REFERENCE)
        m = np.diag([L0, L1])
        h = histogram_over(m, 10, 1000, 3, (0.0, 1.0))
        with pytest.raises(ValueError, match="beyond the support"):
            compare_histogram(d, h)


# Values of the piecewise implementation that the segment law replaced, at 17
# significant digits: as_dict(), pdf and cdf on a grid over the support and
# at |l0|^2 (the cdf also off both ends), and the quadrature moments. The
# spectra are the reference, (0.5, 1), the projector (0, 1), the opposite
# phases (1, -1), a radial near-degenerate pair 1e-8 apart, and the case
# boundary path of TestCaseBoundary at distances +1e-8 and -1e-8. The last
# five are near-degenerate or boundary spectra on which one rounding guard of
# the segment law shows: the cdf pins at |l0|^2 and below the support, the
# sign of s0 taken from the one-piece test, the s0 >= -d/2 clamp, and d taken
# as the representable extent s1 - s0. Those five are pinned at the values of
# the cancellation-free f0 = Im(l0 conj(l0 - l1))^2 / d^2: the old
# Im(l0 conj(l1)) numerator put f0 up to 1e-9 off, against exact rational f0
# and against 4e6 sampled fidelities. The three angular pairs have supports
# narrower than an ulp (the sampled values sit within rounding of |l1|^2).
INF = float("inf")
PINNED = {
    "reference": {
        "spectrum": (
            complex(0.64671567275790065, 0.26787840265556284),
            complex(-0.64721359549995794, 0.47022820183397862),
        ),
        "case": "two_piece",
        "f0": 0.13292089787308489,
        "support": (0.13292089787308489, 0.64000000000000012),
        "pieces": [
            (0.13292089787308489, 0.48999999999999994, 0.76355938503819742),
            (0.48999999999999994, 0.64000000000000012, 0.38177969251909871),
        ],
        "pdf": [
            (0.13292089787308489, INF),
            (0.15827485297943067, 4.7953461390762655),
            (0.25969067340481367, 2.144543988523139),
            (0.38646044893654252, 1.516421596837557),
            (0.51323022446827127, 0.61907652453141404),
            (0.61464604489365426, 0.55006392682977345),
            (0.64000000000000012, 0.53613599713078464),
            (0.48999999999999994, 0.63889664390361822),
        ],
        "cdf": [
            (0.13292089787308489, 0),
            (0.15827485297943067, 0.24316198145905635),
            (0.25969067340481367, 0.54372672008599332),
            (0.38646044893654252, 0.76894570177025146),
            (0.51323022446827127, 0.9271544322248676),
            (0.61464604489365426, 0.98623253195957539),
            (0.64000000000000012, 1),
            (0.1229208978730849, 0),
            (0.65000000000000013, 1),
            (0.48999999999999994, 0.91254655982801358),
        ],
        "mean": 0.27913360125302283,
        "second_moment": 0.096134486934994712,
    },
    "half_one": {
        "spectrum": (
            complex(0.5, 0),
            complex(1, 0),
        ),
        "case": "one_piece",
        "f0": 0,
        "support": (0.25, 1),
        "pieces": [
            (0.25, 1, 1),
        ],
        "pdf": [
            (0.25, 2),
            (0.28749999999999998, 1.8650096164806276),
            (0.4375, 1.5118578920369088),
            (0.625, 1.2649110640673518),
            (0.8125, 1.1094003924504583),
            (0.96249999999999991, 1.0192943828752512),
            (1, 1),
            (0.25, 2),
        ],
        "cdf": [
            (0.25, 0),
            (0.28749999999999998, 0.072380529476360866),
            (0.4375, 0.32287565553229536),
            (0.625, 0.58113883008418976),
            (0.8125, 0.80277563773199456),
            (0.96249999999999991, 0.96214168703485825),
            (1, 1),
            (0.23999999999999999, 0),
            (1.01, 1),
            (0.25, 0),
        ],
        "mean": 0.58333333333333337,
        "second_moment": 0.38750000000000001,
    },
    "projector": {
        "spectrum": (
            complex(0, 0),
            complex(1, 0),
        ),
        "case": "two_piece",
        "f0": 0,
        "support": (0, 1),
        "pieces": [
            (0, 1, 0.5),
        ],
        "pdf": [
            (0, INF),
            (0.050000000000000003, 2.2360679774997898),
            (0.25, 1),
            (0.5, 0.70710678118654746),
            (0.75, 0.57735026918962584),
            (0.94999999999999996, 0.5129891760425771),
            (1, 0.5),
            (0, INF),
        ],
        "cdf": [
            (0, 0),
            (0.050000000000000003, 0.22360679774997896),
            (0.25, 0.5),
            (0.5, 0.70710678118654757),
            (0.75, 0.8660254037844386),
            (0.94999999999999996, 0.97467943448089633),
            (1, 1),
            (-0.01, 0),
            (1.01, 1),
            (0, 0),
        ],
        "mean": 0.33333333333333331,
        "second_moment": 0.20000000000000001,
    },
    "opposite": {
        "spectrum": (
            complex(1, 0),
            complex(-1, 0),
        ),
        "case": "unitary_like",
        "f0": 0,
        "support": (0, 1),
        "pieces": [
            (0, 1, 0.5),
        ],
        "pdf": [
            (0, INF),
            (0.050000000000000003, 2.2360679774997898),
            (0.25, 1),
            (0.5, 0.70710678118654746),
            (0.75, 0.57735026918962584),
            (0.94999999999999996, 0.5129891760425771),
            (1, 0.5),
            (1, 0.5),
        ],
        "cdf": [
            (0, 0),
            (0.050000000000000003, 0.22360679774997896),
            (0.25, 0.5),
            (0.5, 0.70710678118654757),
            (0.75, 0.8660254037844386),
            (0.94999999999999996, 0.97467943448089633),
            (1, 1),
            (-0.01, 0),
            (1.01, 1),
            (1, 1),
        ],
        "mean": 0.33333333333333331,
        "second_moment": 0.20000000000000001,
    },
    "radial_1e-8": {
        "spectrum": (
            complex(0.69999999999999996, 0),
            complex(0.70000001000000001, 0),
        ),
        "case": "one_piece",
        "f0": 0,
        "support": (0.48999999999999994, 0.49000001400000009),
        "pieces": [
            (0.48999999999999994, 0.49000001400000009, 49999999.748762034),
        ],
        "pdf": [
            (0.48999999999999994, 71428571.069660053),
            (0.49000000069999994, 71428571.018639639),
            (0.49000000349999995, 71428570.814558014),
            (0.49000000700000002, 71428570.559455976),
            (0.49000001050000008, 71428570.304353938),
            (0.49000001330000009, 71428570.100272313),
            (0.49000001400000009, 71428570.049251899),
            (0.48999999999999994, 71428571.069660053),
        ],
        "cdf": [
            (0.48999999999999994, 0),
            (0.49000000069999994, 0.050000003885780561),
            (0.49000000349999995, 0.24999999722444244),
            (0.49000000700000002, 0.50000000555111501),
            (0.49000001050000008, 0.75000000277555745),
            (0.49000001330000009, 0.94999999611421937),
            (0.49000001400000009, 0.99999999999999989),
            (0.47999999999999993, 0),
            (0.50000001400000005, 0.99999999999999989),
            (0.48999999999999994, 0),
        ],
        "mean": 0.4900000069999999,
        "second_moment": 0.24010000685999999,
    },
    "boundary_plus": {
        "spectrum": (
            complex(0.35999998999999983, 0.48000000749999994),
            complex(1, 0),
        ),
        "case": "two_piece",
        "f0": 0.35999999999999982,
        "support": (0.35999999999999982, 1),
        "pieces": [
            (0.35999999999999982, 0.35999999999999999, 1.2499999804687503),
            (0.35999999999999999, 1, 0.62499999023437514),
        ],
        "pdf": [
            (0.35999999999999982, INF),
            (0.39199999999999985, 3.4938561602519171),
            (0.5199999999999998, 1.5624999755859379),
            (0.67999999999999994, 1.1048543283406314),
            (0.83999999999999986, 0.90210978151332488),
            (0.96799999999999997, 0.80154557504237689),
            (1, 0.78124998779296884),
            (0.35999999999999999, 48431650.112517953),
        ],
        "cdf": [
            (0.35999999999999982, 0),
            (0.39199999999999985, 0.22360680988112266),
            (0.5199999999999998, 0.50000000781249987),
            (0.67999999999999994, 0.70710678576300401),
            (0.83999999999999986, 0.86602540587779153),
            (0.96799999999999997, 0.97467943487653019),
            (1, 1),
            (0.34999999999999981, 0),
            (1.01, 1),
            (0.35999999999999999, 3.1755979686355059e-08),
        ],
        "mean": 0.57333332999999997,
        "second_moment": 0.36511999631999992,
    },
    "boundary_minus": {
        "spectrum": (
            complex(0.36000000999999993, 0.47999999249999986),
            complex(1, 0),
        ),
        "case": "one_piece",
        "f0": 0.35999999999999982,
        "support": (0.35999999999999999, 1),
        "pieces": [
            (0.35999999999999999, 1, 0.6250000097656252),
        ],
        "pdf": [
            (0.35999999999999999, 48431651.626007043),
            (0.39200000000000002, 3.4938562694349149),
            (0.52000000000000002, 1.5625000244140621),
            (0.67999999999999994, 1.1048543628673297),
            (0.83999999999999997, 0.90210980970425592),
            (0.96799999999999997, 0.80154560009067666),
            (1, 0.7812500122070315),
            (0.35999999999999999, 48431651.626007043),
        ],
        "cdf": [
            (0.35999999999999999, 5.0597999005636202e-10),
            (0.39200000000000002, 0.22360678561883551),
            (0.52000000000000002, 0.49999999218750002),
            (0.67999999999999994, 0.70710677661009091),
            (0.83999999999999997, 0.86602540169108555),
            (0.96799999999999997, 0.97467943408526259),
            (1, 1),
            (0.34999999999999998, 0),
            (1.01, 1),
            (0.35999999999999999, 5.0597999005636202e-10),
        ],
        "mean": 0.57333333666666664,
        "second_moment": 0.36512000368000003,
    },
    "angular_unit_1e-8": {
        "spectrum": (
            complex(0.9210609940028851, 0.38941834230865052),
            complex(0.92106099010870168, 0.38941835151926046),
        ),
        "case": "unitary_like",
        "f0": 1,
        "support": (1, 1),
        "pieces": [
            (1, 1, 99999999.998605147),
            (1, 1, 49999999.999302574),
        ],
        "pdf": [
            (0.99999999891939106, 0),
            (0.99999999897342151, 0),
            (0.9999999991895433, 0),
            (0.99999999945969553, 0),
            (0.99999999972984777, 0),
            (0.99999999994596955, 0),
            (1, INF),
            (1, INF),
        ],
        "cdf": [
            (0.99999999891939106, 0),
            (0.99999999897342151, 0),
            (0.9999999991895433, 0),
            (0.99999999945969553, 0),
            (0.99999999972984777, 0),
            (0.99999999994596955, 0),
            (1, 1),
            (0.98999999891939106, 0),
            (1.01, 1),
            (1, 1),
        ],
        "mean": 1,
        "second_moment": 1,
    },
    "boundary_path_0.6": {
        "spectrum": (
            complex(0.35999999990000003, 0.48000000007499993),
            complex(1, 0),
        ),
        "case": "two_piece",
        "f0": 0.35999999999999999,
        "support": (0.35999999999999999, 1),
        "pieces": [
            (0.35999999999999999, 0.35999999999999999, 1.2499999998046878),
            (0.35999999999999999, 1, 0.62499999990234389),
        ],
        "pdf": [
            (0.3600000000000001, 59316416.005889036),
            (0.39200000000000007, 3.4938562142975029),
            (0.52000000000000002, 1.5624999997558595),
            (0.68000000000000005, 1.1048543454313471),
            (0.84000000000000008, 0.90210979546783565),
            (0.96799999999999997, 0.80154558744128535),
            (1, 0.78124999987792976),
            (0.35999999999999999, INF),
        ],
        "cdf": [
            (0.3600000000000001, 1.3327140040371532e-08),
            (0.39200000000000007, 0.22360679787129062),
            (0.52000000000000002, 0.50000000007812495),
            (0.68000000000000005, 0.7071067812323123),
            (0.84000000000000008, 0.86602540380537241),
            (0.96799999999999997, 0.97467943448485272),
            (1, 1),
            (0.35000000000000009, 0),
            (1.01, 1),
            (0.35999999999999999, 3.1249976555018848e-10),
        ],
        "mean": 0.57333333330000003,
        "second_moment": 0.36511999996319999,
    },
    "angular_0.7_1e-8": {
        "spectrum": (
            complex(-0.29130279467597386, 0.63650819461650865),
            complex(-0.29130278558299966, 0.63650819877797715),
        ),
        "case": "two_piece",
        "f0": 0.48999999999999994,
        "support": (0.48999999999999994, 0.48999999999999994),
        "pieces": [
            (0.48999999999999994, 0.48999999999999977, 99999999.984830216),
            (0.48999999999999977, 0.48999999999999994, 49999999.992415108),
        ],
        "pdf": [
            (0.48999999933550736, 0),
            (0.48999999936873201, 0),
            (0.48999999950163053, 0),
            (0.48999999966775365, 0),
            (0.48999999983387676, 0),
            (0.48999999996677529, 0),
            (0.48999999999999994, INF),
            (0.48999999999999977, 0),
        ],
        "cdf": [
            (0.48999999933550736, 0),
            (0.48999999936873201, 0),
            (0.48999999950163053, 0),
            (0.48999999966775365, 0),
            (0.48999999983387676, 0),
            (0.48999999996677529, 0),
            (0.48999999999999994, 1),
            (0.47999999933550735, 0),
            (0.49999999999999994, 1),
            (0.48999999999999977, 0),
        ],
        "mean": 0.48999999999999999,
        "second_moment": 0.24009999999999995,
    },
    "angular_0.3_1e-9": {
        "spectrum": (
            complex(0.27631829820086551, 0.11682550269259515),
            complex(0.27631829781144718, 0.11682550361365614),
        ),
        "case": "two_piece",
        "f0": 0.089999999999999955,
        "support": (0.089999999999999955, 0.089999999999999997),
        "pieces": [
            (0.089999999999999955, 0.089999999999999997, 1000000006.8659213),
        ],
        "pdf": [
            (0.089999999475787226, 0),
            (0.089999999501997871, 0),
            (0.089999999606840422, 0),
            (0.089999999737893605, 0),
            (0.089999999868946801, 0),
            (0.089999999973789352, 0),
            (0.089999999999999997, 1.5498128384572925e+17),
            (0.089999999999999997, 1.5498128384572925e+17),
        ],
        "cdf": [
            (0.089999999475787226, 0),
            (0.089999999501997871, 0),
            (0.089999999606840422, 0),
            (0.089999999737893605, 0),
            (0.089999999868946801, 0),
            (0.089999999973789352, 0),
            (0.089999999999999997, 1),
            (0.079999999475787231, 0),
            (0.099999999999999992, 1),
            (0.089999999999999997, 1),
        ],
        "mean": 0.089999999999999955,
        "second_moment": 0.0080999999999999926,
    },
    "radial_1.0_1e-10": {
        "spectrum": (
            complex(0.9210609940028851, 0.38941834230865052),
            complex(0.9210609940949912, 0.38941834234759237),
        ),
        "case": "one_piece",
        "f0": 1.918665823574947e-14,
        "support": (1, 1.0000000002),
        "pieces": [
            (1, 1.0000000002, 5000005137.4185467),
        ],
        "pdf": [
            (1, 5000005137.4185953),
            (1.00000000001, 5000005137.3935947),
            (1.00000000005, 5000005137.2935944),
            (1.0000000001, 5000005137.1685944),
            (1.00000000015, 5000005137.0435944),
            (1.00000000019, 5000005136.943594),
            (1.0000000002, 5000005136.9185934),
            (1, 5000005137.4185953),
        ],
        "cdf": [
            (1, 0),
            (1.00000000001, 0.049998945287042906),
            (1.00000000005, 0.24999916733187597),
            (1.0000000001, 0.49999944488791731),
            (1.00000000015, 0.74999972244395863),
            (1.00000000019, 0.94999994448879177),
            (1.0000000002, 1),
            (0.98999999999999999, 0),
            (1.0100000002, 1),
            (1, 0),
        ],
        "mean": 1.0000000001000002,
        "second_moment": 1.0000000002000005,
    },
}


def close(want):
    return pytest.approx(want, rel=1e-12, abs=0.0)


class TestPinnedValues:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_as_dict(self, name):
        want = PINNED[name]
        got = normal_pdf(QubitSpectrum(*want["spectrum"])).as_dict()
        assert got["case"] == want["case"]
        assert got["f0"] == close(want["f0"])
        assert got["support"] == [close(x) for x in want["support"]]
        assert len(got["pieces"]) == len(want["pieces"])
        for piece, (f_lo, f_hi, c) in zip(got["pieces"], want["pieces"]):
            got_piece = (piece["f_lo"], piece["f_hi"], piece["c"])
            assert got_piece == (close(f_lo), close(f_hi), close(c))

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pdf_and_cdf(self, name):
        want = PINNED[name]
        d = normal_pdf(QubitSpectrum(*want["spectrum"]))
        for fn, table in ((d.pdf, want["pdf"]), (d.cdf, want["cdf"])):
            f, values = np.array(table).T
            assert list(fn(f)) == [close(v) for v in values]
            assert [fn(x) for x in f] == [close(v) for v in values]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_quadrature_moments(self, name):
        want = PINNED[name]
        rep = quadrature_moments(normal_pdf(QubitSpectrum(*want["spectrum"])))
        assert rep.mean == close(want["mean"])
        assert rep.second_moment == close(want["second_moment"])
