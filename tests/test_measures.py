import cmath
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from circlequad import ArcSpec, MeasureSpec, UnitPoint, moments
from circlequad.errors import FileFormatError, InvalidParameterError
from circlequad.measures import (
    LEBESGUE,
    in_open_arc,
    load_moments,
    parse_measure_flag,
    save_moments,
)

from circlequad_helpers import modified_hat_moments, same_orientation


class TestArcSpec:
    def test_span_and_contains(self):
        arc = ArcSpec(UnitPoint.from_theta(0.5), UnitPoint.from_theta(2.0))
        assert abs(arc.span - 1.5) < 1e-15
        assert arc.contains(cmath.exp(1.0j))
        assert not arc.contains(cmath.exp(3.0j))
        assert arc.contains(cmath.exp(0.5j), closed=True)
        assert not arc.contains(cmath.exp(0.5j), closed=False)

    def test_wraparound(self):
        arc = ArcSpec(UnitPoint.from_theta(5.5), UnitPoint.from_theta(0.5))
        assert arc.contains(cmath.exp(6.0j))
        assert arc.contains(1.0 + 0j)
        assert not arc.contains(cmath.exp(3.0j))

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArcSpec(UnitPoint.from_theta(1.0), UnitPoint.from_theta(1.0))


def test_in_open_arc():
    x, y = cmath.exp(0.2j), cmath.exp(1.2j)
    assert in_open_arc(cmath.exp(0.7j), x, y)
    assert not in_open_arc(x, x, y)
    assert not in_open_arc(cmath.exp(2.0j), x, y)


def test_same_orientation():
    a = tuple(cmath.exp(1j * t) for t in (0.1, 0.5, 1.0))
    b = tuple(cmath.exp(1j * t) for t in (2.0, 2.5, 3.0))
    assert same_orientation(a, b)
    assert not same_orientation(a, (b[0], b[2], b[1]))


class TestMoments:
    def test_lebesgue(self):
        mu = moments(LEBESGUE, 4)
        assert mu.get(0) == 1.0
        assert all(mu.get(k) == 0 for k in range(1, 5))

    def test_rogers_szego_values(self):
        mu = moments(MeasureSpec("rogers_szego", q=0.25), 3)
        assert np.allclose(
            [mu.get(k) for k in range(4)],
            [1.0, 0.25**0.5, 0.25**2.0, 0.25**4.5],
        )

    def test_arc_lebesgue_against_quadrature_oracle(self):
        ta, tb = 0.3, 2.4
        mu = moments(MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb), 5)
        for k in range(6):
            re = quad(lambda t: math.cos(k * t), ta, tb)[0] / (tb - ta)
            im = quad(lambda t: math.sin(k * t), ta, tb)[0] / (tb - ta)
            assert abs(mu.get(k) - complex(re, im)) < 1e-12

    def test_rogers_szego_param_validated(self):
        with pytest.raises(InvalidParameterError):
            MeasureSpec("rogers_szego", q=1.5)

    def test_arc_order_validated(self):
        with pytest.raises(InvalidParameterError):
            MeasureSpec("arc_lebesgue", theta_a=2.0, theta_b=1.0)


class TestModifiedHatMoments:
    def test_against_quadrature_oracle(self):
        ta, tb = 0.3, 2.4
        a, b = UnitPoint.from_theta(ta), UnitPoint.from_theta(tb)
        mu = moments(MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb), 6)
        hat = modified_hat_moments(mu, a, b, 4)
        s = cmath.sqrt(np.conj(a.z * b.z))
        if (s * (mu.get(1) - (a.z + b.z) * mu.get(0) + a.z * b.z * mu.get(-1))).real < 0:
            s = -s

        def weight(t, k):
            z = cmath.exp(1j * t)
            return s * (z - a.z) * (z - b.z) * np.conj(z) * z**k / (tb - ta)

        for k in range(5):
            re = quad(lambda t: weight(t, k).real, ta, tb)[0]
            im = quad(lambda t: weight(t, k).imag, ta, tb)[0]
            assert abs(hat.get(k) - complex(re, im)) < 1e-12
        assert hat.get(0).real > 0

    def test_endpoint_vanishing_weight_is_positive_inside(self):
        # the modified weight s (z-a)(z-b) conj(z) is >= 0 on the arc
        ta, tb = -0.5, 1.7
        a, b = UnitPoint.from_theta(ta), UnitPoint.from_theta(tb)
        s = cmath.sqrt(np.conj(a.z * b.z))
        t = np.linspace(ta, tb, 50)
        z = np.exp(1j * t)
        vals = s * (z - a.z) * (z - b.z) * np.conj(z)
        if np.sum(vals.real) < 0:
            vals = -vals
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.min(vals.real) >= -1e-12

    def test_mismatched_endpoints_rejected(self):
        mu = moments(MeasureSpec("lebesgue"), 6)
        # Lebesgue has full support; endpoint-vanishing modification of a
        # short arc still works, but asking for more moments than held fails
        with pytest.raises(InvalidParameterError):
            modified_hat_moments(
                mu, UnitPoint.from_theta(0.0), UnitPoint.from_theta(1.0), 6
            )

    def test_positive_definite_chain(self):
        from circlequad import schur_from_moments

        ta, tb = 0.3, 2.4
        mu = moments(MeasureSpec("arc_lebesgue", theta_a=ta, theta_b=tb), 10)
        hat = modified_hat_moments(
            mu, UnitPoint.from_theta(ta), UnitPoint.from_theta(tb), 8
        )
        s = schur_from_moments(hat, 8)
        assert np.all(np.abs(s.params()) < 1.0)


class TestMomentFiles:
    def test_round_trip(self, tmp_path):
        mu = moments(MeasureSpec("rogers_szego", q=0.5), 5)
        path = tmp_path / "mu.json"
        save_moments(mu, path)
        back = load_moments(path)
        assert np.allclose(back.mu, mu.mu)

    def test_bad_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(FileFormatError):
            load_moments(path)
        path.write_text(json.dumps([[1.0, 0.0], [0.5]]))
        with pytest.raises(FileFormatError):
            load_moments(path)
        path.write_text(json.dumps([[-1.0, 0.0]]))
        with pytest.raises(FileFormatError):
            load_moments(path)
        with pytest.raises(FileFormatError):
            load_moments(tmp_path / "missing.json")

    @pytest.mark.parametrize("text", [
        "[[NaN, 0], [0.1, 0]]", "[[1, 0], [0.1, NaN]]", "[[1, 0], [Infinity, 0]]",
        f"[[1, 0], [{10**400}, 0]]",
    ])
    def test_non_finite_entry_refused(self, tmp_path, text):
        # Python's json reads NaN and Infinity as floats, and an integer
        # beyond every float as an int
        path = tmp_path / "mu.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="non-finite"):
            load_moments(path)

    @pytest.mark.parametrize("text", ["[[true, false], [0.1, 0]]", "[[1, 0], [0.1, true]]"])
    def test_boolean_entry_refused(self, tmp_path, text):
        # Python's json reads true and false as bool, which is an int
        path = tmp_path / "mu.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="entry"):
            load_moments(path)

    def test_max_order_enforced(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.1, 0.0]]))
        with pytest.raises(FileFormatError):
            load_moments(path, max_order=3)
        assert load_moments(path, max_order=1).order == 1


class TestParseMeasureFlag:
    def test_variants(self):
        assert parse_measure_flag("lebesgue") == LEBESGUE
        rs = parse_measure_flag("rogers-szego:q=0.5")
        assert rs.variant == "rogers_szego" and rs.q == 0.5
        arc = parse_measure_flag("arc-lebesgue:a=0.3,b=2.4")
        assert (arc.theta_a, arc.theta_b) == (0.3, 2.4)
        mf = parse_measure_flag("file:/tmp/x.json")
        assert mf.variant == "moment_file" and mf.path == "/tmp/x.json"

    def test_labels_round_trip(self):
        for text in (
            "lebesgue",
            "rogers-szego:q=0.5",
            "arc-lebesgue:a=0.3,b=2.4",
            "file:/tmp/x.json",
        ):
            assert parse_measure_flag(parse_measure_flag(text).label()).label() == (
                parse_measure_flag(text).label()
            )

    def test_rejects_garbage(self):
        for text in ("gauss", "rogers-szego:p=1", "arc-lebesgue:a=1"):
            with pytest.raises(InvalidParameterError):
                parse_measure_flag(text)
