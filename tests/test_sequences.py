import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halpernlp import (
    ConvergentEvidence,
    NoRiseEvidence,
    RealSequencePrefix,
    TauCertificate,
    eventually_increasing_tau,
    example_sequence,
    mainge_tau,
    verify_example_claims,
    xu_recursion,
)
from halpernlp import cli, sequences
from halpernlp.sequences import _verify_certificate, rise_selections


def brute_force_rises(values):
    """1-based indices k with xi_k < xi_{k+1}."""
    return [k for k in range(1, len(values)) if values[k - 1] < values[k]]


class TestExampleSequence:
    def test_paper_values(self):
        assert example_sequence(1) == 0.0
        assert example_sequence(2) == 0.5
        assert example_sequence(1000) == 0.001

    def test_claims_small(self):
        rep = verify_example_claims(10)
        assert rep.odd_rises_confirmed and rep.no_dominating_subsequence

    def test_claims_large(self):
        rep = verify_example_claims(10_000)
        assert rep.odd_rises_confirmed and rep.no_dominating_subsequence

    def test_tampered_sequence_detected(self):
        # constant 1 at even indices: a dominating subsequence now exists
        vals = [0.0 if n % 2 == 1 else 1.0 for n in range(1, 102)]
        rep = verify_example_claims(100, values=vals)
        assert not rep.no_dominating_subsequence
        assert rep.witness is not None


class TestMaingeTau:
    def test_strictly_decreasing_gives_no_rise(self):
        prefix = RealSequencePrefix(np.array([5.0, 4.0, 3.0, 1.0]))
        assert isinstance(mainge_tau(prefix), NoRiseEvidence)

    def test_example_prefix_hand_values(self):
        # (0, 1/2, 0, 1/4, 0, 1/6): rises at k = 1, 3, 5
        vals = np.array([example_sequence(n) for n in range(1, 7)])
        cert = mainge_tau(RealSequencePrefix(vals))
        assert isinstance(cert, TauCertificate)
        assert cert.tau_of(4) == 3
        assert vals[3 - 1] <= vals[3]  # rise at tau(4)
        assert vals[4 - 1] <= vals[3]  # domination at n = 4

    def test_increasing_prefix(self):
        vals = np.array([1.0, 2.0, 3.0])
        cert = mainge_tau(RealSequencePrefix(vals))
        assert cert.tau_of(1) == 1 and cert.tau_of(2) == 2
        # tau(3) is the last rise index, 2
        assert cert.tau_of(3) == 2

    def test_tau_never_exceeds_index(self, rng):
        for _ in range(100):
            vals = rng.standard_normal(50)
            res = mainge_tau(RealSequencePrefix(vals))
            if isinstance(res, TauCertificate):
                for n in range(res.n_start, 51):
                    assert res.tau_of(n) <= n

    def test_tau_matches_brute_force(self, rng):
        for _ in range(200):
            vals = rng.standard_normal(60)
            res = mainge_tau(RealSequencePrefix(vals))
            rises = brute_force_rises(vals)
            if not rises:
                assert isinstance(res, NoRiseEvidence)
                continue
            for n in range(res.n_start, 61):
                expected = max(k for k in rises if k <= n)
                assert res.tau_of(n) == expected

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=100,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_certificates_always_verify(self, vals):
        res = mainge_tau(RealSequencePrefix(np.array(vals)))
        if isinstance(res, TauCertificate):
            assert res.monotone and res.rise and res.domination


def loop_tau(v):
    """tau(n) = last rise index <= n, for n from the first rise on, by a scan."""
    rises = [k for k in range(1, len(v)) if v[k - 1] < v[k]]
    if not rises:
        return None
    tau, j = [], 0
    for n in range(rises[0], len(v) + 1):
        if j + 1 < len(rises) and rises[j + 1] <= n:
            j += 1
        tau.append(rises[j])
    return rises[0], np.array(tau)


def loop_flags(v, tau, n_start, start_index):
    """(rise, domination) of a rise selection, one index at a time."""
    rise = all(v[t - 1] <= v[t] for t in tau)
    domination = all(
        v[n - 1] <= v[int(tau[n - n_start])]
        for n in range(max(start_index, n_start), n_start + tau.size)
    )
    return rise, domination


# few distinct values, so that ties (no strict rise) are common
_tied_prefixes = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=60)


class TestVectorizedCertificates:
    """The array checks of the certificates against one-index-at-a-time loops."""

    @given(_tied_prefixes)
    @settings(max_examples=300, deadline=None)
    def test_mainge_tau_matches_the_scan(self, vals):
        v = np.array(vals)
        res = mainge_tau(RealSequencePrefix(v))
        expected = loop_tau(v)
        if expected is None:
            assert isinstance(res, NoRiseEvidence)
            return
        first, tau = expected
        assert res.n_start == res.start_index == first
        np.testing.assert_array_equal(res.tau, tau)
        assert (res.rise, res.domination) == loop_flags(v, tau, first, first) == (True, True)

    @given(_tied_prefixes, st.data())
    @settings(max_examples=300, deadline=None)
    def test_flags_match_the_loops_on_any_selection(self, vals, data):
        # arbitrary selections, most of them invalid: the array checks must
        # accept exactly those the loops accept
        v = np.array(vals)
        n = v.size
        n_start = data.draw(st.integers(1, n))
        tau = np.array(
            data.draw(st.lists(st.integers(1, n - 1), min_size=n - n_start + 1,
                               max_size=n - n_start + 1)),
            dtype=int,
        )
        start_index = data.draw(st.integers(1, n + 1))
        rise, domination = loop_flags(v, tau, n_start, start_index)
        monotone = bool(np.all(np.diff(tau) >= 0))
        prefix = RealSequencePrefix(v)
        if monotone and rise and domination:
            cert = _verify_certificate(prefix, tau, n_start, start_index)
            assert (cert.rise, cert.domination) == (True, True)
        else:
            with pytest.raises(AssertionError, match=f"rise={rise} domination={domination}"):
                _verify_certificate(prefix, tau, n_start, start_index)


def _tied_stacks(max_rows):
    """Stacks of 1..max_rows tie-heavy prefixes of one common length."""
    return st.integers(2, 60).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n),
        min_size=1, max_size=max_rows))


def _result_of_row(sel, i):
    """Row i of a rise_selections result as (n_start, start_index, tau, flags)."""
    tau, n_start, start_index, flags, _ = sel
    if not n_start[i]:
        return None
    j = np.count_nonzero(n_start[:i])  # flags has a column per certified row
    return (int(n_start[i]), int(start_index[i]), tau[i, n_start[i] - 1:],
            tuple(flags[:, j].tolist()))


def _result_of_certificate(cert):
    if not isinstance(cert, TauCertificate):
        return None
    return (cert.n_start, cert.start_index, cert.tau,
            (cert.monotone, cert.divergent_prefix_evidence, cert.rise, cert.domination))


def _assert_same(got, expected):
    assert (got is None) == (expected is None)
    if got is not None:
        assert got[:2] == expected[:2] and got[3] == expected[3]
        assert got[2].dtype == np.int64
        np.testing.assert_array_equal(got[2], expected[2])


class TestStackedRiseSelections:
    """Each row of a stack against its one-row call and the scan oracles."""

    @given(_tied_stacks(6))
    @settings(max_examples=200, deadline=None)
    def test_mainge_rows_match_one_row_calls_and_the_scan(self, rows):
        v = np.array(rows)
        sel = rise_selections(v)
        for i, row in enumerate(v):
            got = _result_of_row(sel, i)
            one = mainge_tau(RealSequencePrefix(row))
            _assert_same(got, _result_of_certificate(one))
            expected = loop_tau(row)
            assert (got is None) == (expected is None) == isinstance(one, NoRiseEvidence)
            if expected is None:
                continue
            first, tau = expected
            assert got[:2] == (first, first)
            np.testing.assert_array_equal(got[2], tau)
            assert loop_flags(row, tau, first, first) == (True, True) == got[3][2:]
            assert got[3][:2] == (bool(np.all(np.diff(tau) >= 0)), bool(tau[-1] >= tau[0]))

    @given(_tied_stacks(6), st.sampled_from([0.25, 1.0, 2.5]))
    @settings(max_examples=200, deadline=None)
    def test_eventual_rows_match_one_row_calls_and_the_scan(self, rows, tol):
        v = np.array(rows)
        sel = rise_selections(v, tol)
        for i, row in enumerate(v):
            got = _result_of_row(sel, i)
            one = eventually_increasing_tau(RealSequencePrefix(row), tol)
            _assert_same(got, _result_of_certificate(one))
            tail = row[-max(row.size // 4, 1):]
            expected = loop_tau(row)
            if expected is None or tail.max() - tail.min() <= tol:
                assert got is None and isinstance(one, ConvergentEvidence)
                assert sel[4][i] == one.tail_oscillation == tail.max() - tail.min()
                continue
            first, tau = expected
            tau = np.concatenate([np.full(first - 1, first), tau])
            assert got[:2] == (1, first)
            np.testing.assert_array_equal(got[2], tau)
            assert loop_flags(row, tau, 1, first) == (True, True) == got[3][2:]

    def test_rows_without_a_certificate_are_left_out_of_the_checks(self):
        v = np.array([[3.0, 2.0, 1.0], [0.0, 1.0, 0.0], [2.0, 2.0, 2.0]])
        tau, n_start, start_index, flags, osc = rise_selections(v)
        np.testing.assert_array_equal(n_start, [0, 1, 0])
        np.testing.assert_array_equal(tau[1], [1, 1, 1])
        assert flags.shape == (4, 1) and osc is None

    def test_a_failing_row_raises_with_its_flags(self):
        # a decreasing selection on row 1 of 2: the check names its flags
        v = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]])
        tau = np.array([[1, 2, 3, 3], [3, 1, 1, 1]])
        with pytest.raises(AssertionError, match="monotone=False rise=True domination=True"):
            sequences._check_rows(v, tau, np.array([1, 1]), np.array([1, 1]))


_RUNNING_RISE_INDEX = sequences._running_rise_index


def _marks_only(v):
    """A broken tau builder: the rise marks without their running maximum."""
    marks = np.zeros(v.shape, dtype=np.int64)
    marks[:, :-1] = np.where(v[:, :-1] < v[:, 1:], np.arange(1, v.shape[1]), 0)
    return marks


def _shifted_by_one(v):
    """A broken tau builder: every tau(n) one lower."""
    return np.maximum(_RUNNING_RISE_INDEX(v) - 1, 0)


class TestFuzzInBlocks:
    @pytest.mark.parametrize("count", [50, 130])
    def test_block_draws_equal_one_draw_per_prefix(self, monkeypatch, count):
        seen = []

        def spy(values, cauchy_tol=None):
            seen.append((values.copy(), cauchy_tol))
            return rise_selections(values, cauchy_tol)

        monkeypatch.setattr(cli, "rise_selections", spy)
        rng = np.random.default_rng(7)
        assert cli._fuzz_certificates(count, rng) == (0, 0)
        assert all(v.shape[0] <= 64 for v, _ in seen)
        osc = np.concatenate([v for v, tol in seen if tol == 1e-6])
        mono = np.concatenate([v for v, tol in seen if tol == 1e9])
        ref = np.random.default_rng(7)
        expected_osc = [np.abs(ref.standard_normal(200)) + 0.1 for _ in range(count)]
        expected_mono = []
        for _ in range(count):
            drops = np.abs(ref.standard_normal(200)) + 1e-3
            expected_mono.append(10.0 + np.concatenate([[0.0], -np.cumsum(drops[:-1])]))
        assert osc.tobytes() == np.array(expected_osc).tobytes()
        assert mono.tobytes() == np.array(expected_mono).tobytes()
        assert rng.standard_normal() == ref.standard_normal()  # same stream position

    @pytest.mark.parametrize("mutant", [_marks_only, _shifted_by_one])
    def test_fuzz_catches_a_broken_construction(self, monkeypatch, mutant):
        monkeypatch.setattr(sequences, "_running_rise_index", mutant)
        try:
            bad = cli._fuzz_certificates(50, np.random.default_rng(0))
        except AssertionError as e:
            assert "failed its own verification" in str(e)
        else:
            assert bad != (0, 0)


class TestPinnedOutputs:
    """Bytes pinned before the stacked rewrite; they must not move."""

    def test_cli_orbit_bytes(self):
        orbit = xu_recursion(
            1.0, lambda n: np.minimum(1.0, 1.0 / np.sqrt(n)), lambda n: 1.0 / n, 100_000
        )
        assert hashlib.sha256(orbit.values.tobytes()).hexdigest() == (
            "e9474ba067bd817aed7508633b123d925ae03020d2dd6ee065d52ee4327c04e8")

    def test_fuzz_certificate_digest(self):
        rng, h = np.random.default_rng(0), hashlib.sha256()
        for _ in range(500):
            prefix = RealSequencePrefix(np.abs(rng.standard_normal(200)) + 0.1)
            for res in (eventually_increasing_tau(prefix, 1e-6), mainge_tau(prefix)):
                h.update(np.asarray(res.tau, dtype=np.int64).tobytes())
                h.update(f"{res.n_start},{res.start_index};".encode())
        assert h.hexdigest() == (
            "f0c04385afbf22c92a3b761b80fab9806f80239caf2c115d6c1fd686520b36fc")


class TestEventuallyIncreasingTau:
    def test_constant_prefix_is_convergent_evidence(self):
        res = eventually_increasing_tau(
            RealSequencePrefix(np.ones(40)), cauchy_tol=1e-6
        )
        assert isinstance(res, ConvergentEvidence)

    def test_example_prefix_full_coverage(self):
        vals = np.array([example_sequence(n) for n in range(1, 101)])
        cert = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=1e-3)
        assert isinstance(cert, TauCertificate)
        # the rise inequality holds at EVERY index after the patch
        for n in range(1, 101):
            t = cert.tau_of(n)
            assert vals[t - 1] <= vals[t]
        for n in range(cert.start_index, 101):
            assert vals[n - 1] <= vals[cert.tau_of(n)]

    def test_alternating_prefix(self):
        vals = np.array([0.0, 1.0] * 30)
        cert = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=0.5)
        assert isinstance(cert, TauCertificate)
        # tau(n) picks odd (1-based) indices where xi = 0 rises to 1
        for n in range(cert.start_index, 61):
            assert cert.tau_of(n) % 2 == 1

    def test_fuzz_oscillating_vs_monotone(self, rng):
        for _ in range(500):
            vals = np.abs(rng.standard_normal(200)) + 0.05
            res = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=1e-9)
            assert isinstance(res, TauCertificate)
            assert res.monotone and res.rise and res.domination
        for _ in range(500):
            drops = np.abs(rng.standard_normal(200)) + 1e-3
            vals = 100.0 + np.concatenate([[0.0], -np.cumsum(drops[:-1])])
            assert isinstance(
                mainge_tau(RealSequencePrefix(vals)), NoRiseEvidence
            )
            res = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=1e9)
            assert isinstance(res, ConvergentEvidence)


class TestXuRecursion:
    def test_alpha_one_zeroes_immediately(self):
        orbit = xu_recursion(3.0, lambda n: 1.0, lambda n: 0.0, 10)
        np.testing.assert_array_equal(orbit.values[1:], np.zeros(9))

    def test_telescoping_product(self):
        # alpha_n = 1/(n+1), gamma = 0: xi_{n+1} = 1/(n+1) exactly
        orbit = xu_recursion(1.0, lambda n: 1.0 / (n + 1), lambda n: 0.0, 50)
        for n in range(1, 51):
            assert orbit.values[n - 1] == pytest.approx(1.0 / n, rel=1e-12)

    def test_divergent_sum_drives_to_zero(self):
        orbit = xu_recursion(
            1.0, lambda n: 1.0 / np.sqrt(n), lambda n: 1.0 / n, 100_000
        )
        assert orbit.values[-1] <= 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            xu_recursion(-1.0, lambda n: 0.5, lambda n: 0.0, 5)
        with pytest.raises(ValueError):
            xu_recursion(1.0, lambda n: 2.0, lambda n: 0.0, 5)


def test_xu_recursion_names_the_first_bad_alpha_past_the_first_block():
    alpha = lambda n: np.where(n >= 5000, np.nan, 0.5)  # noqa: E731
    with pytest.raises(ValueError, match=r"alpha_5000 = nan outside \[0, 1\]"):
        xu_recursion(1.0, alpha, lambda n: 0.0, 6000)


def test_xu_recursion_matches_the_scalar_loop_across_blocks():
    alpha = lambda n: 1.0 / np.sqrt(n + 1.0)  # noqa: E731
    gamma = lambda n: np.where(n % 3 == 0, -1.0, 2.0) / n  # noqa: E731
    xi, expected = 0.5, []
    for n in range(1, 4500):
        expected.append(xi)
        a = float(alpha(n))
        xi = (1.0 - a) * xi + a * float(gamma(n))
    orbit = xu_recursion(0.5, alpha, gamma, 4499)
    assert orbit.values.tobytes() == np.array(expected).tobytes()
