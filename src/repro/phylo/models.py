"""Substitution models for maximum-likelihood phylogenetics.

Implements the reversible model family via spectral decomposition of
the rate matrix: ``P(t) = V exp(L t) V^-1``.  For nucleotides HKY85 and
Jukes-Cantor are the usual special cases of GTR.  A discrete-Gamma
model of among-site rate heterogeneity (Yang 1994) is provided because
RAxML's GAMMA mode is what makes the likelihood kernels as memory- and
FP-intensive as the paper describes.

Everything is vectorized over sites and rate categories; transition
matrices for many branch lengths are computed in one einsum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SubstitutionModel",
    "gtr",
    "hky",
    "jc69",
    "discrete_gamma_rates",
]


def _normalize_frequencies(freqs) -> np.ndarray:
    f = np.asarray(freqs, dtype=float)
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError(f"need a 1-D frequency vector, got shape {f.shape}")
    if np.any(f <= 0):
        raise ValueError("state frequencies must be positive")
    return f / f.sum()


@dataclass(frozen=True)
class SubstitutionModel:
    """A reversible substitution model, spectrally decomposed.

    Attributes
    ----------
    frequencies:
        Stationary state frequencies (length = alphabet size).
    rates:
        The ``n(n-1)/2`` symmetric exchangeability parameters in
        row-major upper-triangle order (for DNA: AC, AG, AT, CG, CT, GT).
    """

    frequencies: np.ndarray
    rates: np.ndarray
    _eigvals: np.ndarray = field(repr=False, default=None)
    _V: np.ndarray = field(repr=False, default=None)
    _Vinv: np.ndarray = field(repr=False, default=None)

    @property
    def n_states(self) -> int:
        """Alphabet size (4 for DNA)."""
        return self.frequencies.shape[0]

    @staticmethod
    def create(frequencies, rates) -> "SubstitutionModel":
        """Build and decompose a general reversible model.

        The rate matrix is scaled so the expected substitution rate at
        stationarity is 1 (branch lengths are then in expected
        substitutions per site).
        """
        freqs = _normalize_frequencies(frequencies)
        n = freqs.shape[0]
        r = np.asarray(rates, dtype=float)
        n_ex = n * (n - 1) // 2
        if r.shape != (n_ex,):
            raise ValueError(
                f"need {n_ex} exchangeabilities for {n} states, "
                f"got shape {r.shape}"
            )
        if np.any(r <= 0):
            raise ValueError("exchangeabilities must be positive")

        # Assemble Q from the symmetric exchangeabilities.
        q = np.zeros((n, n))
        idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for rate, (i, j) in zip(r, idx):
            q[i, j] = rate * freqs[j]
            q[j, i] = rate * freqs[i]
        np.fill_diagonal(q, -q.sum(axis=1))
        # Normalize the mean rate: -sum_i pi_i q_ii = 1.
        mu = -(freqs * np.diag(q)).sum()
        q /= mu

        # Symmetrize with pi^(1/2) for a stable eigendecomposition:
        # S = D^(1/2) Q D^(-1/2) is symmetric for reversible Q.
        d = np.sqrt(freqs)
        s = (q * d[:, None]) / d[None, :]
        eigvals, u = np.linalg.eigh((s + s.T) / 2.0)
        v = u / d[:, None]          # V = D^(-1/2) U
        vinv = u.T * d[None, :]     # V^-1 = U^T D^(1/2)

        return SubstitutionModel(
            frequencies=freqs,
            rates=r,
            _eigvals=eigvals,
            _V=v,
            _Vinv=vinv,
        )

    # -- transition probabilities --------------------------------------------
    def transition_matrix(self, t: float) -> np.ndarray:
        """P(t) for a single branch length ``t`` (4x4)."""
        return self.transition_matrices(np.asarray([t]))[0]

    def transition_matrices(self, lengths) -> np.ndarray:
        """P(t) for an array of branch lengths; shape (..., 4, 4).

        Negative lengths are rejected; zero gives the identity.
        """
        t = np.asarray(lengths, dtype=float)
        if np.any(t < 0):
            raise ValueError("branch lengths must be non-negative")
        expo = np.exp(np.multiply.outer(t, self._eigvals))  # (..., 4)
        p = np.einsum("ij,...j,jk->...ik", self._V, expo, self._Vinv)
        # Clip tiny negative values from roundoff.
        return np.clip(p, 0.0, None)

    def transition_derivatives(self, t: float, rates=None):
        """(P, dP/dt, d2P/dt2) at ``t`` for each rate category.

        With rate scaling r, P_r(t) = exp(Q r t), so dP_r/dt = r * Q P_r.
        Returned arrays have shape (n_rates, 4, 4).  Used by the Newton
        branch-length optimizer (RAxML's ``makenewz``).
        """
        if t < 0:
            raise ValueError("branch length must be non-negative")
        r = np.asarray([1.0] if rates is None else rates, dtype=float)
        lam = self._eigvals
        e = np.exp(np.multiply.outer(r * t, lam))        # (R, 4)
        p = np.einsum("ij,rj,jk->rik", self._V, e, self._Vinv)
        d1 = np.einsum("ij,rj,jk->rik", self._V, e * (r[:, None] * lam), self._Vinv)
        d2 = np.einsum(
            "ij,rj,jk->rik", self._V, e * (r[:, None] * lam) ** 2, self._Vinv
        )
        return np.clip(p, 0.0, None), d1, d2


def gtr(frequencies, rates) -> SubstitutionModel:
    """General time-reversible model.

    No entry point builds one (the workloads use :func:`hky`); the model
    tests use it as the general reversible case.
    """
    return SubstitutionModel.create(frequencies, rates)


def hky(frequencies=(0.25, 0.25, 0.25, 0.25), kappa: float = 2.0) -> SubstitutionModel:
    """HKY85: one transition/transversion ratio ``kappa``."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    # Transitions: AG and CT.
    rates = np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0])
    return SubstitutionModel.create(frequencies, rates)


def jc69() -> SubstitutionModel:
    """Jukes-Cantor 1969: uniform frequencies and rates.

    No entry point builds one (the workloads use :func:`hky`); the tests
    use it as a reference, since its P(t) has a closed form.
    """
    return SubstitutionModel.create(np.full(4, 0.25), np.ones(6))


def discrete_gamma_rates(alpha: float, n_categories: int = 4) -> np.ndarray:
    """Mean rates of ``n_categories`` equal-probability Gamma bins.

    The Yang (1994) discrete approximation of Gamma(alpha, alpha) rate
    heterogeneity; rates are normalized to mean 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_categories < 1:
        raise ValueError("need at least one category")
    if n_categories == 1:
        return np.ones(1)
    from scipy.stats import gamma as gamma_dist

    probs = (np.arange(n_categories) + 0.5) / n_categories
    quantiles = gamma_dist.ppf(probs, alpha, scale=1.0 / alpha)
    return quantiles / quantiles.mean()
