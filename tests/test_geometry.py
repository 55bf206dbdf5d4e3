import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halpernlp import LpSpace
from halpernlp.geometry import (
    DimensionMismatchError, _dual_map, _power_norm, _row_dual_maps, _row_power_norms
)

from conftest import P_GRID


def vec(draw_dim=4):
    return st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=draw_dim,
        max_size=draw_dim,
    ).map(np.array)


ps = st.sampled_from(P_GRID)


class TestNorms:
    def test_zero_vector(self):
        sp = LpSpace(3, 3.0)
        assert sp.norm(np.zeros(3)) == 0.0
        assert sp.dual_norm(np.zeros(3)) == 0.0

    def test_euclidean_case(self):
        sp = LpSpace(2, 2.0)
        assert sp.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_p3_closed_form(self):
        # (1^3 + 1^3)^{1/3} evaluated by independent scalar arithmetic
        sp = LpSpace(2, 3.0)
        assert sp.norm(np.array([1.0, 1.0])) == pytest.approx(2.0 ** (1 / 3), rel=1e-14)

    def test_dual_norm_p3(self):
        # q = 3/2: (1 + 1)^{2/3}
        sp = LpSpace(2, 3.0)
        assert sp.dual_norm(np.array([1.0, 1.0])) == pytest.approx(
            2.0 ** (2 / 3), rel=1e-14
        )

    def test_large_exponent_no_overflow(self):
        sp = LpSpace(4, 10.0)
        x = np.full(4, 1e3)
        expected = 1e3 * 4 ** (1 / 10)
        assert sp.norm(x) == pytest.approx(expected, rel=1e-12)

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            LpSpace(3, 1.0)
        with pytest.raises(ValueError):
            LpSpace(3, 11.0)
        with pytest.raises(ValueError):
            LpSpace(0, 2.0)

    def test_conjugate_exponent(self):
        for p in P_GRID + [1.1, 10.0]:
            sp = LpSpace(2, p)
            assert 1.0 / p + 1.0 / sp.q == pytest.approx(1.0, abs=1e-15)


class TestPairing:
    def test_zero_dual(self, rng):
        sp = LpSpace(5, 2.5)
        assert sp.pairing(rng.standard_normal(5), np.zeros(5)) == 0.0

    def test_dot_product(self):
        sp = LpSpace(2, 2.0)
        assert sp.pairing(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_dimension_mismatch(self):
        sp = LpSpace(3, 2.0)
        with pytest.raises(DimensionMismatchError):
            sp.pairing(np.zeros(3), np.zeros(4))

    def test_holder(self, rng):
        for p in P_GRID:
            sp = LpSpace(6, p)
            for _ in range(50):
                x = rng.standard_normal(6)
                xs = rng.standard_normal(6)
                assert abs(sp.pairing(x, xs)) <= sp.norm(x) * sp.dual_norm(xs) + 1e-12


class TestDualityMap:
    def test_zero(self):
        sp = LpSpace(3, 3.0)
        np.testing.assert_array_equal(sp.duality_map(np.zeros(3)), np.zeros(3))
        np.testing.assert_array_equal(sp.inverse_duality_map(np.zeros(3)), np.zeros(3))

    def test_identity_for_p2(self, rng):
        sp = LpSpace(4, 2.0)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(sp.duality_map(x), x, rtol=1e-12)
        np.testing.assert_allclose(sp.inverse_duality_map(x), x, rtol=1e-12)

    def test_p3_frozen_value(self):
        sp = LpSpace(2, 3.0)
        x = np.array([1.0, 1.0])
        j = sp.duality_map(x)
        np.testing.assert_allclose(j, 2.0 ** (-1 / 3) * np.ones(2), rtol=1e-13)
        assert sp.pairing(x, j) == pytest.approx(2.0 ** (2 / 3), rel=1e-13)
        assert sp.pairing(x, j) == pytest.approx(sp.norm(x) ** 2, rel=1e-13)

    @given(x=vec(), p=ps)
    @settings(max_examples=300, deadline=None)
    def test_defining_identities(self, x, p):
        sp = LpSpace(4, p)
        j = sp.duality_map(x)
        n2 = sp.norm(x) ** 2
        scale = max(n2, 1.0)
        assert abs(sp.pairing(x, j) - n2) <= 1e-10 * scale
        assert abs(sp.dual_norm(j) - sp.norm(x)) <= 1e-10 * max(sp.norm(x), 1.0)

    @given(x=vec(), p=ps)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, x, p):
        sp = LpSpace(4, p)
        back = sp.inverse_duality_map(sp.duality_map(x))
        assert np.linalg.norm(back - x) <= 1e-10 * max(np.linalg.norm(x), 1.0)
        xs = np.asarray(x)
        fwd = sp.duality_map(sp.inverse_duality_map(xs))
        assert np.linalg.norm(fwd - xs) <= 1e-10 * max(np.linalg.norm(xs), 1.0)

    @given(x=vec(), y=vec(), p=ps)
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, x, y, p):
        sp = LpSpace(4, p)
        gap = sp.pairing(x - y, sp.duality_map(x) - sp.duality_map(y))
        assert gap >= -1e-12 * max(1.0, np.linalg.norm(x - y) ** 2)


class TestLyapunov:
    def test_self_distance_zero(self, rng):
        for p in P_GRID:
            sp = LpSpace(5, p)
            x = rng.standard_normal(5)
            assert sp.lyapunov(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_p2_is_squared_distance(self, rng):
        sp = LpSpace(5, 2.0)
        for _ in range(20):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert sp.lyapunov(x, y) == pytest.approx(
                np.linalg.norm(x - y) ** 2, rel=1e-12, abs=1e-12
            )

    def test_p3_axis_points(self):
        sp = LpSpace(2, 3.0)
        assert sp.lyapunov(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            2.0, rel=1e-14
        )

    @given(x=vec(), y=vec(), p=ps)
    @settings(max_examples=300, deadline=None)
    def test_lower_bound(self, x, y, p):
        sp = LpSpace(4, p)
        assert sp.lyapunov(x, y) >= (sp.norm(x) - sp.norm(y)) ** 2 - 1e-12

    def test_kt_inequality(self, rng):
        # phi(x, J^{-1}x*) <= phi(x, J^{-1}(x* - y*)) + 2<J^{-1}x* - x, y*>
        for p in P_GRID:
            sp = LpSpace(4, p)
            for _ in range(200):
                x = rng.standard_normal(4)
                xs = rng.standard_normal(4)
                ys = rng.standard_normal(4)
                jinv_xs = sp.inverse_duality_map(xs)
                lhs = sp.lyapunov(x, jinv_xs)
                rhs = sp.lyapunov(x, sp.inverse_duality_map(xs - ys)) + 2.0 * float(
                    np.dot(jinv_xs - x, ys)
                )
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestDualConvexCombination:
    def test_endpoints(self, rng):
        sp = LpSpace(4, 3.0)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_array_equal(sp.dual_convex_combination(1.0, x, y), x)
        np.testing.assert_array_equal(sp.dual_convex_combination(0.0, x, y), y)

    def test_p2_is_plain_combination(self, rng):
        sp = LpSpace(4, 2.0)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(
            sp.dual_convex_combination(0.3, x, y), 0.3 * x + 0.7 * y, rtol=1e-12
        )

    def test_weight_range(self):
        sp = LpSpace(2, 2.0)
        with pytest.raises(ValueError):
            sp.dual_convex_combination(1.5, np.zeros(2), np.ones(2))

    def test_convexity_inequality(self, rng):
        # phi(w, J^{-1}(lam Jx + (1-lam) Jy)) <= lam phi(w,x) + (1-lam) phi(w,y)
        for p in P_GRID:
            sp = LpSpace(4, p)
            for _ in range(200):
                lam = rng.uniform()
                x, y, w = (rng.standard_normal(4) for _ in range(3))
                blend = sp.dual_convex_combination(lam, x, y)
                lhs = sp.lyapunov(w, blend)
                rhs = lam * sp.lyapunov(w, x) + (1 - lam) * sp.lyapunov(w, y)
                assert lhs <= rhs + 1e-9 * max(1.0, rhs)


class TestSampleLevelEquivalence:
    """x_n - y_n -> 0, J x_n - J y_n -> 0 and phi(x_n, y_n) -> 0 travel together."""

    def test_vanishing_gap_vanishing_phi(self, rng):
        sp = LpSpace(4, 3.0)
        base = rng.standard_normal(4) + 2.0
        phis, jgaps = [], []
        for n in range(1, 60):
            xn = base + rng.standard_normal(4) / (10.0 * n)
            yn = base - rng.standard_normal(4) / (10.0 * n)
            phis.append(sp.lyapunov(xn, yn))
            jgaps.append(sp.dual_norm(sp.duality_map(xn) - sp.duality_map(yn)))
        assert phis[-1] < 1e-2 and phis[-1] < phis[0]
        assert jgaps[-1] < 1e-1 and jgaps[-1] < jgaps[0]

    def test_persistent_gap_persistent_phi(self, rng):
        sp = LpSpace(4, 3.0)
        offset = np.array([1.0, 0.0, 0.0, 0.0])
        for n in range(1, 40):
            xn = rng.standard_normal(4)
            yn = xn + offset
            assert sp.lyapunov(xn, yn) > 1e-3
            assert sp.dual_norm(sp.duality_map(xn) - sp.duality_map(yn)) > 1e-3


def _masked_signed_power(x, exponent):
    # the zero-masked formula the kernels used before; kept as the oracle
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = np.abs(x[nz]) ** exponent * np.sign(x[nz])
    return out


def _masked_dual_map(x, exponent):
    a = np.abs(x)
    m = float(np.max(a, initial=0.0))
    if m == 0.0:
        return np.zeros_like(x)
    n = m * float(np.sum((a / m) ** exponent)) ** (1.0 / exponent)
    return n * _masked_signed_power(x / n, exponent - 1.0)


class TestDualityMapBitExact:
    """J and J^{-1} match the zero-masked formula bit for bit, signed zeros included."""

    def test_matches_masked_formula(self, rng):
        for p in P_GRID + [1.1, 10.0]:
            sp = LpSpace(7, p)
            for _ in range(50):
                x = rng.standard_normal(7) * 10.0 ** rng.integers(-3, 4)
                x[[1, 4]] = 0.0
                x[[2, 6]] = -0.0
                for got, exponent in (
                    (sp.duality_map(x), sp.p),
                    (sp.inverse_duality_map(x), sp.q),
                ):
                    want = _masked_dual_map(x, exponent)
                    assert got.tobytes() == want.tobytes(), (p, x)
                    assert np.all(got[[1, 2, 4, 6]] == 0.0)


class TestRowPowerNorms:
    """The driver's two residual columns come from one row-wise reduction
    per block of steps, which must equal _power_norm of each row bit for bit,
    whatever the number of rows."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0, 10.0])
    def test_matches_power_norm(self, rng, p):
        tiny = np.finfo(float).smallest_subnormal
        rows = [
            np.zeros(5),
            np.array([-0.0, 0.0, -0.0]),
            np.array([3.5]),
            np.array([-0.0]),
            np.array([tiny, -3 * tiny, 0.0, 7 * tiny]),
            np.array([1e300, -1e300, 3e299]),
            np.array([1e-300, 2e-310, -1e-300]),
            np.array([1e300, 1e-300, -0.0, tiny]),
        ]
        for dim in (1, 2, 3, 10, 200):
            for _ in range(20):
                rows.append(rng.standard_normal(dim) * 10.0 ** rng.uniform(-300, 300))
        for r0 in rows:
            for r1 in (r0[::-1].copy(), np.zeros(r0.size), 1e-5 * rng.standard_normal(r0.size)):
                got = _row_power_norms(np.array((r0, r1)), p)
                assert got == [_power_norm(r0, p), _power_norm(r1, p)], (p, r0, r1)
        for dim in (1, 2, 3, 10, 200):
            same = [r for r in rows if r.size == dim]
            # about as many coordinates as a block of the driver's residuals
            stack = np.array(same * max(1, 2**13 // (dim * len(same))))
            assert _row_power_norms(stack, p) == [_power_norm(r, p) for r in stack], (p, dim)


class TestRowDualMaps:
    """A blend's S_n x_n is formed by run_halpern as J^{-1} of J S_n x_n, one
    row-wise map per block of steps, which must equal _dual_map of each row
    with its norm bit for bit, signed zeros and zero rows included."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0, 10.0])
    def test_matches_dual_map(self, rng, p):
        tiny = np.finfo(float).smallest_subnormal
        for dim in (1, 3, 10, 200):
            rows = [np.zeros(dim), np.full(dim, -0.0), np.full(dim, tiny), np.full(dim, -1e300)]
            for _ in range(20):
                x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-300, 300)
                x[rng.random(dim) < 0.2] = 0.0
                x[rng.random(dim) < 0.2] = -0.0
                rows.append(x)
            for exponent in (p, p / (p - 1.0)):
                # about as many coordinates as a block of the driver's steps
                stack = np.array(rows * max(1, 2**12 // (dim * len(rows))))
                norms = _row_power_norms(stack, exponent)
                got = _row_dual_maps(stack, exponent, norms)
                for row, n, g in zip(stack, norms, got):
                    assert g.tobytes() == _dual_map(row, exponent, n).tobytes(), (exponent, row)


class TestValidationAtBoundary:
    """Every public method that takes vectors validates each of them."""

    METHODS = {
        "norm": lambda sp, v, ok: sp.norm(v),
        "dual_norm": lambda sp, v, ok: sp.dual_norm(v),
        "pairing": lambda sp, v, ok: sp.pairing(ok, v),
        "pairing_first": lambda sp, v, ok: sp.pairing(v, ok),
        "duality_map": lambda sp, v, ok: sp.duality_map(v),
        "inverse_duality_map": lambda sp, v, ok: sp.inverse_duality_map(v),
        "lyapunov": lambda sp, v, ok: sp.lyapunov(ok, v),
        "lyapunov_first": lambda sp, v, ok: sp.lyapunov(v, ok),
        "dual_convex_combination": lambda sp, v, ok: sp.dual_convex_combination(
            0.5, ok, v
        ),
        "dual_convex_combination_first": lambda sp, v, ok: sp.dual_convex_combination(
            0.5, v, ok
        ),
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_rejects_bad_vectors(self, method, p):
        call = self.METHODS[method]
        sp = LpSpace(3, p)
        ok = np.array([1.0, -2.0, 0.5])
        with pytest.raises(DimensionMismatchError):
            call(sp, np.ones(4), ok)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                call(sp, np.array([1.0, bad, 0.0]), ok)
