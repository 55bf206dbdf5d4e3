"""Real-sequence tools: the summability recursion, rise-index selection
with verified certificates, and the odd/even counterexample sequence.

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

    def at(self, k: int) -> float:
        if not 1 <= k <= len(self):
            raise IndexError(f"index {k} outside prefix 1..{len(self)}")
        return float(self.values[k - 1])


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


def _verify_certificate(prefix: RealSequencePrefix, tau: np.ndarray,
                        n_start: int, start_index: int) -> TauCertificate:
    v = prefix.values
    n_end = n_start + tau.size - 1
    monotone = bool(np.all(np.diff(tau) >= 0))
    divergent = bool(tau.size < 2 or tau[-1] >= tau[0])
    rise = bool(np.all(v[tau - 1] <= v[tau]))  # xi_tau(n) <= xi_{tau(n)+1}
    ns = np.arange(max(start_index, n_start), n_end + 1)
    domination = bool(np.all(v[ns - 1] <= v[tau[ns - n_start]]))  # xi_n <= xi_{tau(n)+1}
    cert = TauCertificate(
        tau=tau,
        n_start=n_start,
        start_index=start_index,
        monotone=monotone,
        divergent_prefix_evidence=divergent,
        rise=rise,
        domination=domination,
    )
    if not (monotone and rise and domination):
        raise AssertionError(
            "rise-index construction failed its own verification; "
            f"flags: monotone={monotone} rise={rise} domination={domination}"
        )
    return cert


def mainge_tau(prefix: RealSequencePrefix):
    """tau(n) = max{k <= n : xi_k < xi_{k+1}}, defined from the first rise on.

    Returns a verified TauCertificate, or NoRiseEvidence when the prefix
    has no rise at all (the hypothesis of the lemma is unmet).
    """
    v = prefix.values
    rises = np.flatnonzero(v[:-1] < v[1:]) + 1  # 1-based rise indices
    if rises.size == 0:
        return NoRiseEvidence(length=len(prefix))
    first = int(rises[0])
    # the last rise index <= n, for n = first .. len(prefix)
    ns = np.arange(first, len(prefix) + 1)
    tau = rises[np.searchsorted(rises, ns, side="right") - 1]
    return _verify_certificate(prefix, tau, n_start=first, start_index=first)


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
    v = prefix.values
    tail = v[-max(len(prefix) // 4, 1):]
    osc = float(np.max(tail) - np.min(tail))
    if osc <= cauchy_tol:
        return ConvergentEvidence(tail_oscillation=osc, cauchy_tol=cauchy_tol)
    base = mainge_tau(prefix)
    if isinstance(base, NoRiseEvidence):
        return ConvergentEvidence(tail_oscillation=osc, cauchy_tol=cauchy_tol)
    pad = np.full(base.n_start - 1, base.tau_of(base.n_start), dtype=int)
    tau = np.concatenate([pad, base.tau])
    return _verify_certificate(
        prefix, tau, n_start=1, start_index=base.start_index
    )


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
    tends to 0; the returned prefix holds xi_1 .. xi_{n_steps}.
    """
    if xi1 < 0:
        raise ValueError("the recursion is stated for nonnegative xi_1")
    out = np.empty(n_steps)
    xi = float(xi1)
    for n in range(1, n_steps + 1):
        out[n - 1] = xi
        a = float(alpha(n))
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha_{n} = {a} outside [0, 1]")
        xi = (1.0 - a) * xi + a * float(gamma(n))
    return RealSequencePrefix(out)
