"""Reference steady-state solvers: sparse LU and power iteration, kept as
independent cross-checks of the production solvers.

:meth:`repro.markov.ctmc.CTMC.steady_state` picks dense LU or ILU-GMRES
from the chain's size alone.  The two solvers here used to be selectable
paths of that menu and now only check it:

- :func:`sparse_steady_state` — a direct SuperLU solve of the augmented
  system, exact to machine precision at any size (slow past a few
  thousand states: the normalisation row of ones fills the factors).  It
  can reuse the fill-reducing column permutation of an earlier
  same-pattern solve.
- :func:`power_steady_state` — power iteration on the uniformized DTMC,
  which needs nothing but matvecs, so it shares no linear algebra with
  either production path.

Both build their own system, so a bug in the production assembly cannot
hide in the reference.  The raw vector goes through the production's
``_finalize_pi`` (which clips negative round-off to zero), so rows compare
like for like.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.markov.ctmc import ConvergenceError
from repro.markov.stationary import _finalize_pi

__all__ = [
    "RESIDUAL_HISTORY_LIMIT",
    "power_steady_state",
    "sparse_steady_state",
]

#: Power iteration can run for 100k+ sweeps; the residual history kept on
#: ``ConvergenceError`` is capped to the trailing entries, which are the
#: ones that show the stall shape.
RESIDUAL_HISTORY_LIMIT = 1000


def sparse_steady_state(
    Q: Union[np.ndarray, sparse.spmatrix], perm_c: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``pi Q = 0, sum(pi) = 1`` by SuperLU; returns ``(pi, perm_c)``.

    The system is ``Q^T`` with its last balance equation replaced by the
    normalisation row; when another state comes out the most probable,
    the solve is repeated with that state's equation replaced, the rule
    the production dense solve follows (pinning an unlikely state leaves
    round-off of ~eps * max(pi) in every small entry).  *perm_c*, a column
    permutation from an earlier call on a generator with the same
    sparsity pattern, is applied up front and SuperLU factors with
    ``ColPerm=NATURAL``, skipping the COLAMD analysis; any valid
    permutation keeps the solve exact (row pivoting still happens), so a
    stale one costs fill, never correctness.

    Raises
    ------
    ValueError
        If the system is singular (reducible chain) or *perm_c* has the
        wrong length.
    """
    Q = sparse.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    if perm_c is not None:
        perm_c = np.asarray(perm_c)
        if perm_c.shape != (n,):
            raise ValueError(
                f"perm_c must have length {n}, got shape {perm_c.shape}"
            )
    pi, perm = _splu_augmented_solve(Q, n - 1, perm_c)
    top = int(np.argmax(pi))
    if top != n - 1:
        pi, perm = _splu_augmented_solve(Q, top, perm_c)
    return _finalize_pi(pi), perm


def _splu_augmented_solve(
    Q: sparse.csr_matrix, row: int, perm_c: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The raw solve of ``Q^T`` with equation *row* replaced by the
    normalisation row, and the column permutation it used."""
    n = Q.shape[0]
    keep = np.ones(n)
    keep[row] = 0.0  # drop one balance equation ...
    ones_row = sparse.csr_matrix(
        (np.ones(n), (np.full(n, row), np.arange(n))), shape=(n, n)
    )
    A = (sparse.diags(keep) @ Q.T + ones_row).tocsc()  # ... for sum(pi) = 1
    b = np.zeros(n)
    b[row] = 1.0
    if perm_c is not None:
        A = A[:, perm_c]
    try:
        lu = splu(A, permc_spec="NATURAL" if perm_c is not None else "COLAMD")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise ValueError(f"singular generator: {exc}") from exc
    y = lu.solve(b)
    if perm_c is None:
        # SuperLU's perm_c maps original -> factor column positions; invert
        # it so a later call can *pre*-permute the columns
        return y, np.argsort(lu.perm_c)
    pi = np.empty(n)
    pi[perm_c] = y
    return pi, perm_c


def power_steady_state(
    Q: Union[np.ndarray, sparse.spmatrix],
    tol: float = 1e-10,
    max_iter: int = 100_000,
    cache: Optional[Dict] = None,
) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi) = 1`` by power iteration on the
    uniformized DTMC.

    With ``Lambda = 1.05 * max_i |Q_ii|`` the matrix ``P = I + Q / Lambda``
    is an aperiodic stochastic matrix whose unique fixed point (for
    irreducible chains) is the CTMC's stationary distribution; ``x <- x P``
    converges geometrically at the chain's mixing rate.  Iteration stops
    once successive iterates differ by at most *tol* in the 1-norm.  With
    a *cache*, the solution and residual history land under ``"pi0"`` and
    ``"residual_history"``.

    Raises
    ------
    ConvergenceError
        If the iterates still differ by more than *tol* after *max_iter*
        sweeps; carries the trailing :data:`RESIDUAL_HISTORY_LIMIT`
        differences.
    ValueError
        If every state is absorbing (no uniformization constant exists).
    """
    Q = sparse.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    lam = float(-Q.diagonal().min())
    if lam <= 0.0:
        raise ValueError("power iteration needs at least one non-absorbing state")
    PT = (sparse.eye(n, format="csr") + Q.T.tocsr() / (1.05 * lam)).tocsr()
    x = np.full(n, 1.0 / n)
    history: List[float] = []
    for _ in range(max_iter):
        x_new = PT @ x
        x_new /= x_new.sum()
        diff = float(np.abs(x_new - x).sum())
        history.append(diff)
        x = x_new
        if diff <= tol:
            break
    else:
        raise ConvergenceError(
            "power", max_iter, diff, tol, history[-RESIDUAL_HISTORY_LIMIT:]
        )
    if cache is not None:
        cache["pi0"] = x.copy()
        cache["residual_history"] = tuple(history[-RESIDUAL_HISTORY_LIMIT:])
    return _finalize_pi(x)

