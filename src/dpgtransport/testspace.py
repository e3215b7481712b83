"""Near-optimal test-function coefficients with geometry-keyed caching.

For each coarse cell the columns of C_K express the near-optimal test
functions in the test-search basis: B_K C_K = G_K.  With constant
coefficients the blocks depend on the cell only through the Jacobian of its
reference map, so congruent-up-to-translation cells share one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import TransportForm, local_saddle_blocks
from .mesh import MeshPair
from .solve import NotPositiveDefiniteError, cholesky_factor, cholesky_solve

KEY_DIGITS = 12


@dataclass(frozen=True)
class TestCoefficients:
    matrix: np.ndarray  # (M test-search DOFs) x (N trial DOFs)


def geometry_key(jacobian: np.ndarray) -> tuple[float, ...]:
    """Cache key: the reference-map Jacobian rounded to 12 digits."""
    return tuple(round(float(x), KEY_DIGITS) for x in np.asarray(jacobian).ravel())


def compute_coefficients(b_k: np.ndarray, g_k: np.ndarray) -> TestCoefficients:
    """Solve B_K C_K = G_K by Cholesky."""
    factor = cholesky_factor(b_k)
    return TestCoefficients(cholesky_solve(factor, g_k))


def near_optimal_local_matrix(b_k, g_k, coefficients: TestCoefficients) -> np.ndarray:
    """A_K = G_K^T C_K = G_K^T B_K^{-1} G_K; symmetrized against roundoff."""
    a_k = np.asarray(g_k).T @ coefficients.matrix
    return 0.5 * (a_k + a_k.T)


def near_optimal_load(coefficients: TestCoefficients, load: np.ndarray) -> np.ndarray:
    """Local load tested against the near-optimal functions: C_K^T l_K."""
    return coefficients.matrix.T @ np.asarray(load, dtype=float)


class CoefficientCache:
    """Entries keyed by cell geometry, computed once per key; not thread-safe."""

    def __init__(self):
        self._entries: dict[tuple[float, ...], object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, compute):
        """The entry for `key`, made by `compute()` on the first request."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = compute()
            self.misses += 1
        else:
            self.hits += 1
        return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def cell_blocks(
    cell: int,
    mesh_pair: MeshPair,
    form: TransportForm,
    cache: CoefficientCache | None = None,
) -> tuple[TestCoefficients, np.ndarray]:
    """(C_K, A_K) for one coarse cell, served from the cache when possible."""

    def compute():
        b_k, g_k = local_saddle_blocks(form, cell, mesh_pair)
        try:
            coefficients = compute_coefficients(b_k, g_k)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"Gram matrix indefinite on cell {cell}: {exc}") from exc
        return coefficients, near_optimal_local_matrix(b_k, g_k, coefficients)

    if cache is None:
        return compute()
    return cache.get(geometry_key(mesh_pair.coarse.jacobian(cell)), compute)
