"""Real-sequence tools: the summability recursion over array schedules,
rise-index selection with verified certificates (a running maximum built and
checked on stacks of prefixes at once), and the odd/even counterexample.

Indices are 1-based throughout, matching the usual statement of these
results; a prefix of length N covers indices 1..N and a "rise" at k
means xi_k < xi_{k+1} (so k <= N - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class RealSequencePrefix:
    values: np.ndarray  # values[k - 1] holds xi_k

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("prefix must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("prefix has non-finite values")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True, eq=False)
class TauCertificate:
    """Verified rise-index selection.

    tau[i] holds tau(n) for n = n_start + i; every flag is re-checked
    from (prefix, tau, start_index) before the certificate is returned.
    """

    tau: np.ndarray
    n_start: int  # first n for which tau(n) is defined
    start_index: int  # N0: domination xi_n <= xi_{tau(n)+1} holds for n >= N0
    monotone: bool
    divergent_prefix_evidence: bool
    rise: bool
    domination: bool

    def tau_of(self, n: int) -> int:
        i = n - self.n_start
        if i < 0 or i >= self.tau.size:
            raise IndexError(f"tau({n}) not covered by this certificate")
        return int(self.tau[i])


@dataclass(frozen=True)
class NoRiseEvidence:
    """The prefix has no index k with xi_k < xi_{k+1}."""

    length: int


@dataclass(frozen=True)
class ConvergentEvidence:
    """The prefix tail looks settled; the non-convergence hypothesis is unmet."""

    tail_oscillation: float
    cauchy_tol: float


def _running_rise_index(v: np.ndarray) -> np.ndarray:
    """tau(n) = max{k <= n : xi_k < xi_{k+1}} of each row, 0 before its first
    rise: the running maximum of "k where a rise sits at k, else 0", with no
    rise at N, so tau(N) = tau(N - 1)."""
    marks = np.zeros(v.shape, dtype=np.int64)
    np.multiply(v[:, :-1] < v[:, 1:], np.arange(1, v.shape[1]), out=marks[:, :-1])
    return np.maximum.accumulate(marks, axis=1)


def _check_rows(v: np.ndarray, tau: np.ndarray, n_start: np.ndarray, start_index: np.ndarray):
    """Flags (monotone, divergent, rise, domination) of each row's selection
    tau(n) = tau[i, n - 1] for n_start <= n <= L, against v (m x N, L <= N):
    entries before n_start are masked, and domination before start_index.
    Raises AssertionError naming the flags of the first row that fails."""
    ns = np.arange(1, tau.shape[1] + 1)
    masked = ns < n_start[:, None]
    hi = np.take_along_axis(v, tau, axis=1)  # xi_{tau(n)+1}
    monotone = ((tau[:, 1:] >= tau[:, :-1]) | masked[:, :-1]).all(axis=1)
    divergent = (n_start >= ns.size) | (
        tau[:, -1] >= np.take_along_axis(tau, n_start[:, None] - 1, axis=1)[:, 0])
    rise = ((np.take_along_axis(v, tau - 1, axis=1) <= hi) | masked).all(axis=1)
    domination = ((v[:, :ns.size] <= hi) | masked | (ns < start_index[:, None])).all(axis=1)
    if not (ok := monotone & rise & domination).all():
        i = np.argmin(ok)
        raise AssertionError(
            "rise-index construction failed its own verification; flags: "
            f"monotone={monotone[i]} rise={rise[i]} domination={domination[i]}")
    return np.array([monotone, divergent, rise, domination])


def rise_selections(values: np.ndarray, cauchy_tol: float | None = None):
    """mainge_tau (or, given cauchy_tol, eventually_increasing_tau) of each row
    of values (m x N), built and verified in one pass over the stack.

    Returns (tau, n_start, start_index, flags, tail_oscillation): tau[i, n - 1]
    = tau(n) for n >= n_start[i], 0 where row i gets no certificate.  A row's
    start_index is its first rise, the first nonzero entry of its running-max
    tau; with cauchy_tol, tau(n) = tau(first) before it and n_start is 1.
    """
    v = np.asarray(values, dtype=float)
    tau = _running_rise_index(v)
    first = np.take_along_axis(tau, np.argmax(tau > 0, axis=1)[:, None], axis=1)[:, 0]
    n_start, osc = first, None
    if cauchy_tol is not None:
        tail = v[:, -max(v.shape[1] // 4, 1):]
        osc = tail.max(axis=1) - tail.min(axis=1)
        n_start = ((osc > cauchy_tol) & (first > 0)).astype(np.int64)
        tau = np.maximum(tau, first[:, None])
    live = n_start > 0
    flags = _check_rows(v[live], tau[live], n_start[live], first[live])
    return tau, n_start, first, flags, osc


def _verify_certificate(prefix: RealSequencePrefix, tau: np.ndarray,
                        n_start: int, start_index: int) -> TauCertificate:
    row = np.concatenate([np.zeros(n_start - 1, dtype=tau.dtype), tau])[None]
    flags = _check_rows(prefix.values[None], row, np.array([n_start]), np.array([start_index]))
    return TauCertificate(tau, n_start, start_index, *flags[:, 0].tolist())


def _certificate(tau, n_start, start_index, flags) -> TauCertificate:
    n0 = int(n_start[0])
    return TauCertificate(tau[0, n0 - 1:], n0, int(start_index[0]), *flags[:, 0].tolist())


def mainge_tau(prefix: RealSequencePrefix):
    """tau(n) = max{k <= n : xi_k < xi_{k+1}}, defined from the first rise on.

    Returns a verified TauCertificate, or NoRiseEvidence when the prefix
    has no rise at all (the hypothesis of the lemma is unmet).
    """
    tau, n_start, start_index, flags, _ = rise_selections(prefix.values[None])
    if not n_start[0]:
        return NoRiseEvidence(length=len(prefix))
    return _certificate(tau, n_start, start_index, flags)


def eventually_increasing_tau(prefix: RealSequencePrefix, cauchy_tol: float):
    """Rise selection valid for ALL n, for non-convergent-looking prefixes.

    Extends the mainge_tau construction backwards by the constant value
    tau(n) = sigma(N0) for n < N0, so the rise inequality holds at every
    index while domination still starts at N0.  Prefixes whose last
    quarter oscillates less than cauchy_tol are reported as convergent
    evidence instead.
    """
    if cauchy_tol <= 0:
        raise ValueError("cauchy_tol must be positive")
    tau, n_start, start_index, flags, osc = rise_selections(prefix.values[None], cauchy_tol)
    if not n_start[0]:
        return ConvergentEvidence(float(osc[0]), cauchy_tol)
    return _certificate(tau, n_start, start_index, flags)


def example_sequence(n: int) -> float:
    """0 at odd indices, 1/n at even ones: rises exist at every odd index,
    yet no monotone rise selection can dominate the whole sequence."""
    if n < 1:
        raise ValueError("indices are 1-based")
    return 0.0 if n % 2 == 1 else 1.0 / n


@dataclass(frozen=True)
class ExampleClaimsReport:
    n_max: int
    odd_rises_confirmed: bool
    no_dominating_subsequence: bool
    witness: tuple | None  # (k, m) violating claim 2, if any


def verify_example_claims(n_max: int, values=None) -> ExampleClaimsReport:
    """Check both counterexample claims exhaustively up to n_max.

    claim 1: every odd index k has xi_k < xi_{k+1};
    claim 2: no m_k choice can satisfy xi_{m_k} <= xi_{m_k+1} together
    with xi_k <= xi_{m_k+1} for all k.  Indices m with a non-strict rise
    are necessarily odd, so xi_{m+1} = 1/(m+1); for even k the joint
    constraint 1/k <= 1/(m+1) with m >= k forces m + 1 <= k, impossible.
    The enumeration below is therefore complete for every even k <= n_max
    even though only finitely many m are inspected.
    """
    if n_max < 4:
        raise ValueError("need n_max >= 4")
    if values is None:
        ns = np.arange(1, n_max + 2)
        xi = np.where(ns % 2 == 1, 0.0, 1.0 / ns)
    else:
        xi = np.asarray(values, dtype=float)
        if xi.size < n_max + 1:
            raise ValueError("need values up to index n_max + 1")

    claim1 = bool(np.all(xi[0:n_max:2] < xi[1 : n_max + 1 : 2]))

    # feasible m for an even k: m >= k (subsequences are strictly
    # increasing, so m_k >= k), a rise at m, and domination xi_k <= xi_{m+1};
    # scan with a suffix maximum over the rise values instead of a double loop
    rise_ms = np.flatnonzero(xi[:n_max] <= xi[1 : n_max + 1]) + 1
    witness = None
    if rise_ms.size:
        rise_vals = xi[rise_ms]  # xi_{m+1} at each rise index m
        suffix_max = np.maximum.accumulate(rise_vals[::-1])[::-1]
        ks = np.arange(2, n_max + 1, 2)
        pos = np.searchsorted(rise_ms, ks)
        dominated = (pos < rise_ms.size) & (
            suffix_max[np.minimum(pos, rise_ms.size - 1)] >= xi[ks - 1]
        )
        hits = np.flatnonzero(dominated)
        if hits.size:
            k = int(ks[hits[0]])
            start = int(pos[hits[0]])
            off = int(np.flatnonzero(rise_vals[start:] >= xi[k - 1])[0])
            witness = (k, int(rise_ms[start + off]))
    return ExampleClaimsReport(
        n_max=n_max,
        odd_rises_confirmed=claim1,
        no_dominating_subsequence=witness is None,
        witness=witness,
    )


def xu_recursion(xi1: float, alpha, gamma, n_steps: int) -> RealSequencePrefix:
    """Equality-case orbit xi_{n+1} = (1 - a_n) xi_n + a_n g_n.

    With a_n in [0, 1] summing divergently and limsup g_n <= 0, the orbit
    tends to 0; the returned prefix holds xi_1 .. xi_{n_steps}.  alpha and
    gamma are array schedules: each is called on blocks of at most 2,048
    indices (an int array) and may return a scalar, which broadcasts.
    """
    if xi1 < 0:
        raise ValueError("the recursion is stated for nonnegative xi_1")
    out = np.empty(n_steps)
    xi = float(xi1)
    for lo in range(1, n_steps + 1, 2048):
        ns = np.arange(lo, min(lo + 2048, n_steps + 1))
        a = np.broadcast_to(np.asarray(alpha(ns), dtype=float), ns.shape)
        bad = np.flatnonzero(~((a >= 0.0) & (a <= 1.0)))
        if bad.size:
            raise ValueError(f"alpha_{ns[bad[0]]} = {float(a[bad[0]])} outside [0, 1]")
        seg = []
        for c, d in zip((1.0 - a).tolist(), (a * np.asarray(gamma(ns), dtype=float)).tolist()):
            seg.append(xi)
            xi = c * xi + d
        out[lo - 1:lo - 1 + ns.size] = seg
    return RealSequencePrefix(out)
