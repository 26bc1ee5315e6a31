"""Continuous-time Markov chains.

A CTMC is described by its infinitesimal generator ``Q`` (off-diagonal
entries are transition rates, rows sum to zero).  This module provides

- construction from a rate dictionary or a dense *or* scipy-sparse matrix,
  with validation and a dense/sparse storage *backend*,
- steady-state solution ``pi Q = 0, sum(pi) = 1``, picked by the chain's
  size alone: dense LU up to :data:`DENSE_MAX_STATES` states, ILU-
  preconditioned GMRES on the augmented system above it (see
  docs/solvers.md for the benchmark that sets the constant),
- transient solution ``pi(t) = pi(0) exp(Q t)`` by uniformization (the
  numerically robust algorithm; never forms the matrix exponential of an
  ill-conditioned generator directly), using sparse matvecs under the
  sparse backend,
- expected-reward evaluation: given per-state reward rates (e.g. power in
  milliwatts), the steady-state or finite-horizon expected reward, with
  the finite-horizon integral stepping the distribution forward
  incrementally (one uniformization pass over the whole horizon instead of
  one from ``t = 0`` per quadrature node).

The Petri net reachability analysis (:mod:`repro.petri.ctmc_export`)
produces instances of this class, which is how exponential-only Petri nets
get *analytical* solutions the simulator can be validated against.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, gmres, spilu

from repro import obs
from repro.markov.stationary import NumericalSolveError, _finalize_pi

__all__ = [
    "CTMC",
    "ConvergenceError",
    "DENSE_MAX_STATES",
    "NumericalSolveError",
    "dense_steady_state",
    "gmres_steady_state",
    "resolve_steady_state_method",
]

RateDict = Mapping[Tuple[Hashable, Hashable], float]

#: Chains of at most this many states solve steady state by dense LU and,
#: under ``backend="auto"``, store their generator densely; larger chains
#: solve by ILU-GMRES on sparse storage.  ``benchmarks/bench_gspn_solvers.py``
#: measured dense LU overtaken by GMRES between 300 (``mm1k``) and 800
#: (``wsn-cluster``) states.
DENSE_MAX_STATES = 500

#: Relative residual target of the GMRES steady-state solve, set to keep
#: rows within 1e-12 relative of a direct LU solve.  On the
#: ``wsn-cluster`` chains, 1e-13 measured 7.5e-12 (8 788 states); over a
#: 64-point sweep of the 2 916-state chain, 1e-14 measured 8.8e-13 and
#: 5e-15 measured 5.4e-13, which leaves a margin.  1e-15 costs up to 20x
#: the iterations.
GMRES_TOL = 5e-15

#: GMRES budget in inner Krylov iterations (the 119 164-state
#: ``wsn-cluster`` chain converges in about 200).
GMRES_MAX_ITER = 1000

#: GMRES restart length (Krylov subspace dimension between restarts).
GMRES_RESTART = 50

#: ILU preconditioner strengths ``(drop_tol, fill_factor)``, tried in
#: order.  The first is deliberately *weak*: on multi-dimensional
#: reachability graphs a strong incomplete factorisation costs up to 10x
#: the whole weak-ILU solve (``wsn-cluster``), while a weak ILU builds in
#: ~linear time and merely costs extra (cheap) iterations.  When it hits
#: a zero pivot — the 962-state split-queue net of
#: ``benchmarks/bench_sweep.py`` does, and unpreconditioned GMRES then
#: stalls — or GMRES stalls under it (``cpu-gspn`` at buffer 300 and
#: arrival rate 4.93), the strong one is built instead.
ILU_SETTINGS = ((0.1, 2), (1e-4, 10))


class ConvergenceError(RuntimeError):
    """An iterative steady-state solve stalled before reaching tolerance.

    Raised instead of silently returning an unconverged vector.  Carries
    the diagnostic state a caller needs to react programmatically.

    Attributes
    ----------
    method : str
        The iterative method that stalled (``"gmres"``).
    iterations : int
        Iterations performed before giving up.
    residual : float
        The relative linear-system residual when the iteration stopped.
    tol : float
        The tolerance the residual failed to reach.
    residual_history : tuple of float or None
        Per-iteration (preconditioned) residual norms up to the stall, so
        a caller can see *how* the solve stalled (plateau vs. divergence)
        instead of just the endpoint.
    """

    def __init__(
        self,
        method: str,
        iterations: int,
        residual: float,
        tol: float,
        residual_history: Optional[Sequence[float]] = None,
    ) -> None:
        self.method = method
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        self.residual_history = (
            tuple(float(r) for r in residual_history)
            if residual_history is not None
            else None
        )
        super().__init__(
            f"{method} steady-state solve did not converge: residual "
            f"{residual:.3e} > tol {tol:.1e} after {iterations} iterations"
        )

    def __reduce__(self):
        # default exception pickling replays args (the message string)
        # into __init__, which takes these fields — rebuild from them, so
        # worker-raised stalls survive the multiprocessing result channel
        return (
            ConvergenceError,
            (
                self.method,
                self.iterations,
                self.residual,
                self.tol,
                self.residual_history,
            ),
        )


def resolve_steady_state_method(n: int) -> str:
    """The solver an *n*-state chain's steady state runs: ``"lu"`` for
    ``n <= DENSE_MAX_STATES``, else ``"gmres"``."""
    return "lu" if n <= DENSE_MAX_STATES else "gmres"


def _augmented_system(Q: sparse.spmatrix) -> Tuple[sparse.csc_matrix, np.ndarray]:
    """``(A, b)`` of the augmented steady-state system.

    ``A`` is ``Q^T`` with its last balance equation replaced by the
    normalisation row of ones, so ``A x = b`` (with ``b = e_n``) has the
    stationary distribution as its unique solution for irreducible chains.
    """
    n = Q.shape[0]
    QT = Q.transpose().tocsr()
    A = sparse.vstack(
        [QT[:-1, :], sparse.csr_matrix(np.ones((1, n)))], format="csc"
    )
    b = np.zeros(n)
    b[-1] = 1.0
    return A, b


def dense_steady_state(Q: np.ndarray) -> np.ndarray:
    """Raw stationary vector of a dense generator by LAPACK LU.

    The system is ``Q^T`` with one balance equation replaced by the
    normalisation ``sum(pi) = 1``: the last state's, and when another
    state comes out the most probable, the solve is repeated with that
    state's equation replaced.  Pinning an unlikely state leaves
    round-off of about ``eps * max(pi)`` in every small entry, which on a
    long chain's tail moves a mean by up to 1e-11; pinning the most
    probable one keeps the small entries accurate.  The caller validates
    and normalises the result (:func:`_finalize_pi`).
    """
    QT = Q.T
    n = len(QT)
    pi = _dense_augmented_solve(QT, n - 1)
    top = int(np.argmax(pi))
    if top != n - 1:
        pi = _dense_augmented_solve(QT, top)
    return pi


def _dense_augmented_solve(QT: np.ndarray, row: int) -> np.ndarray:
    """Solve ``Q^T`` with equation *row* replaced by ``sum(pi) = 1``."""
    A = QT.copy()
    A[row, :] = 1.0
    b = np.zeros(len(A))
    b[row] = 1.0
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalSolveError(f"singular generator: {exc}") from exc


def gmres_steady_state(
    Q: Union[np.ndarray, sparse.spmatrix],
    x0: Optional[np.ndarray] = None,
    cache: Optional[Dict] = None,
) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi) = 1`` by ILU-preconditioned GMRES.

    Builds the augmented system (``Q^T`` with the last balance row
    replaced by the normalisation row) and solves it with restarted GMRES
    to :data:`GMRES_TOL` within :data:`GMRES_MAX_ITER` inner iterations,
    preconditioned by an incomplete LU factorisation of that same system:
    the strengths of :data:`ILU_SETTINGS` are tried in order, moving on
    when one hits a zero pivot or GMRES stalls under it.  Unlike a direct
    solve this never forms complete LU factors — which the normalisation
    row of ones fills — so memory stays bounded by the ILU fill budget.

    The states are reordered by reverse Cuthill-McKee first (near-free)
    — reachability exploration emits breadth-first state orders whose ILU
    factors are much weaker than the same budget spent on a
    bandwidth-reduced ordering.  *x0* and the returned distribution stay
    in the caller's original state order; the permutation is internal.

    Nothing but the ordering, which depends on the sparsity pattern
    alone, carries from one solve to the next, so the result is a
    function of *Q* (and *x0*) only: a sweep's rows do not depend on
    which points were solved before them, or in which process.

    Parameters
    ----------
    Q : ndarray or sparse matrix
        Generator (rows sum to zero).
    x0 : ndarray, optional
        Initial guess; the default is GMRES's zero start.
    cache : dict, optional
        Shared by a family of same-pattern chains (the per-point chains
        of one sweep template): the RCM ordering is computed once and
        kept under ``"rcm_perm"``; each successful solve leaves its
        residual history under ``"residual_history"``.

    Returns
    -------
    ndarray
        The stationary distribution.

    Raises
    ------
    ConvergenceError
        If the residual has not reached :data:`GMRES_TOL` within the
        budget under any ILU strength (the error of the last stalled
        solve).  Assumes an irreducible chain; a reducible one may surface
        here rather than as ``NumericalSolveError``, or converge to one of
        its stationary distributions.
    """
    if not sparse.issparse(Q):
        Q = sparse.csr_matrix(np.asarray(Q, dtype=np.float64))
    Q = Q.tocsr()
    n = Q.shape[0]
    perm: Optional[np.ndarray] = None
    if n > 2:
        perm = cache.get("rcm_perm") if cache is not None else None
        if perm is None or np.shape(perm) != (n,):
            perm = np.asarray(reverse_cuthill_mckee(Q, symmetric_mode=False))
            if cache is not None:
                cache["rcm_perm"] = perm
        Q = Q[perm][:, perm].tocsr()
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)[perm]
    A, b = _augmented_system(Q)

    stall: Optional[ConvergenceError] = None
    for drop_tol, fill_factor in ILU_SETTINGS:
        with obs.span("solve.ilu_build", n=n, drop_tol=drop_tol) as ilu_sp:
            try:
                ilu = spilu(A, drop_tol=drop_tol, fill_factor=fill_factor)
            except RuntimeError:
                ilu_sp.set("failed", True)
                continue  # zero pivot: try the next strength
        obs.incr("solver.ilu.builds")
        try:
            x, history = _gmres(A, b, x0, LinearOperator((n, n), ilu.solve))
            break
        except ConvergenceError as exc:
            stall = exc  # a stronger ILU may still converge
    else:
        if stall is not None:
            raise stall
        # every strength hit a zero pivot (usually a reducible chain): run
        # unpreconditioned and let the convergence check speak
        x, history = _gmres(A, b, x0, None)
    if perm is not None:
        x_orig = np.empty(n)
        x_orig[perm] = x
        x = x_orig
    if cache is not None:
        # the per-iteration preconditioned residual norms of the last
        # successful solve, for callers that want the convergence shape
        # (a record only: no later solve reads it)
        cache["residual_history"] = history
    return _finalize_pi(x)


def _gmres(
    A: sparse.csc_matrix,
    b: np.ndarray,
    x0: Optional[np.ndarray],
    M: Optional[LinearOperator],
) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """Restarted GMRES on ``A x = b`` to :data:`GMRES_TOL`; returns the
    solution and its preconditioned residual history, or raises
    :class:`ConvergenceError` once :data:`GMRES_MAX_ITER` is spent."""
    n = A.shape[0]
    residual_history: List[float] = []

    def _record(pr_norm: float) -> None:
        residual_history.append(float(pr_norm))

    restart = max(1, min(GMRES_RESTART, GMRES_MAX_ITER, n))
    outer = max(1, -(-GMRES_MAX_ITER // restart))  # ceil division
    with obs.span("solve.gmres", n=n) as sp:
        x, info = gmres(
            A,
            b,
            x0=x0,
            rtol=GMRES_TOL,
            atol=0.0,
            restart=restart,
            maxiter=outer,
            M=M,
            callback=_record,
            callback_type="pr_norm",
        )
        iterations = len(residual_history)
        sp.set("iterations", iterations)
        if residual_history:
            sp.set("final_residual", residual_history[-1])
        obs.incr("solver.gmres.solves")
        obs.incr("solver.gmres.iterations", iterations)
        if info != 0:
            residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
            raise ConvergenceError(
                "gmres", iterations, residual, GMRES_TOL, residual_history
            )
    return x, tuple(residual_history)


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    generator:
        ``(n, n)`` generator matrix, dense or scipy-sparse.  Off-diagonals
        must be >= 0 and each row must sum to ~0 (the constructor
        re-normalises diagonals to make rows sum exactly to zero, and
        verifies the original diagonals were consistent).
    labels:
        Optional state labels (any hashables); defaults to ``range(n)``.
    backend:
        Generator storage: ``"dense"``, ``"sparse"``, or ``"auto"``
        (default), which picks sparse when the generator is already a
        scipy-sparse matrix or when ``n > DENSE_MAX_STATES``.  The storage
        decides how uniformization multiplies; the steady-state solver is
        picked by ``n`` alone (see :meth:`steady_state`).
    factor_cache:
        Optional dict shared by a *family* of chains with the same
        sparsity pattern (e.g. the per-point chains of a parameter
        sweep): GMRES solves keep their rate-independent state ordering
        there, so later chains reuse it.  Unused by chains that solve by
        dense LU.
    """

    def __init__(
        self,
        generator: Union[np.ndarray, sparse.spmatrix],
        labels: Optional[Sequence[Hashable]] = None,
        backend: str = "auto",
        factor_cache: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if backend not in ("auto", "dense", "sparse"):
            raise ValueError(
                f"backend must be 'auto', 'dense' or 'sparse', got {backend!r}"
            )
        is_sparse_input = sparse.issparse(generator)
        if is_sparse_input:
            Q = generator.tocsr().astype(np.float64)
        else:
            Q = np.asarray(generator, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"generator must be square, got shape {Q.shape}")
        n = Q.shape[0]
        if n == 0:
            raise ValueError("empty chain")

        if backend == "auto":
            backend = (
                "sparse"
                if is_sparse_input or n > DENSE_MAX_STATES
                else "dense"
            )
        self.backend = backend
        self.n = n

        if is_sparse_input:
            off = Q.copy()
            off.setdiag(0.0)
            off.eliminate_zeros()
            if off.data.size and off.data.min() < 0.0:
                raise ValueError("off-diagonal rates must be >= 0")
            rates_out = np.asarray(off.sum(axis=1)).ravel()
            diag = Q.diagonal()
        else:
            off = Q.copy()
            np.fill_diagonal(off, 0.0)
            if np.any(off < 0.0):
                raise ValueError("off-diagonal rates must be >= 0")
            rates_out = off.sum(axis=1)
            diag = np.diag(Q)
        if not np.allclose(diag, -rates_out, rtol=1e-8, atol=1e-8):
            raise ValueError("rows of a generator must sum to zero")

        self._exit_rates: np.ndarray = rates_out
        self._Q_dense: Optional[np.ndarray] = None
        self._Q_csr: Optional[sparse.csr_matrix] = None
        if backend == "sparse":
            if is_sparse_input:
                self._Q_csr = (off - sparse.diags(rates_out)).tocsr()
            else:
                Qc = off
                np.fill_diagonal(Qc, -rates_out)
                self._Q_csr = sparse.csr_matrix(Qc)
        else:
            if is_sparse_input:
                Qc = off.toarray()
            else:
                Qc = off
            np.fill_diagonal(Qc, -rates_out)
            self._Q_dense = Qc

        if labels is None:
            labels = list(range(n))
        if len(labels) != n:
            raise ValueError("labels length must match generator size")
        self.labels: List[Hashable] = list(labels)
        self._index: Dict[Hashable, int] = {s: i for i, s in enumerate(self.labels)}
        if len(self._index) != n:
            raise ValueError("labels must be unique")

        # solver caches (the generator is immutable after construction)
        self._pi: Optional[np.ndarray] = None
        self._unif: Optional[Tuple[float, Callable[[np.ndarray], np.ndarray]]] = None
        self._factor_cache = factor_cache

    # ------------------------------------------------------------------ #
    # representations
    # ------------------------------------------------------------------ #
    @property
    def Q(self) -> np.ndarray:
        """Dense generator matrix (materialised lazily under sparse backend)."""
        if self._Q_dense is None:
            assert self._Q_csr is not None
            self._Q_dense = self._Q_csr.toarray()
        return self._Q_dense

    @property
    def Q_sparse(self) -> sparse.csr_matrix:
        """CSR generator matrix (materialised lazily under dense backend)."""
        if self._Q_csr is None:
            assert self._Q_dense is not None
            self._Q_csr = sparse.csr_matrix(self._Q_dense)
        return self._Q_csr

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rates(
        cls,
        rates: RateDict,
        labels: Optional[Sequence[Hashable]] = None,
        backend: str = "auto",
    ) -> "CTMC":
        """Build from ``{(src, dst): rate}``.

        Labels default to the sorted set of states mentioned in *rates*
        (sorted by string representation to accept mixed label types).
        Under the sparse backend the generator is assembled as COO and
        never densified.
        """
        if labels is None:
            seen = {s for pair in rates for s in pair}
            labels = sorted(seen, key=repr)
        index = {s: i for i, s in enumerate(labels)}
        n = len(labels)
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for (src, dst), rate in rates.items():
            if src == dst:
                raise ValueError(f"self-loop rate on state {src!r}")
            if rate < 0.0:
                raise ValueError(f"negative rate {rate} on {src!r}->{dst!r}")
            rows.append(index[src])
            cols.append(index[dst])
            data.append(rate)
        off = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        exit_rates = np.asarray(off.sum(axis=1)).ravel()
        if backend == "sparse" or (
            backend == "auto" and n > DENSE_MAX_STATES
        ):
            Q: Union[np.ndarray, sparse.spmatrix] = off - sparse.diags(exit_rates)
        else:
            Q = off.toarray()
            np.fill_diagonal(Q, -exit_rates)
        return cls(Q, labels, backend=backend)

    # ------------------------------------------------------------------ #
    # solutions
    # ------------------------------------------------------------------ #
    def steady_state(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi Q = 0`` and ``sum = 1``.

        The chain's size picks the solver (:func:`resolve_steady_state_method`):
        up to :data:`DENSE_MAX_STATES` states, a dense LU solve of the
        augmented system (the most probable state's balance equation
        replaced by the normalisation constraint, :func:`dense_steady_state`),
        exact to machine precision; above it, ILU-preconditioned GMRES on
        an augmented system (:func:`gmres_steady_state`), started cold and
        preconditioned from this chain's own generator.

        Returns
        -------
        ndarray
            The stationary distribution (a copy; solved once and cached).

        Raises
        ------
        NumericalSolveError
            A singular (reducible) chain under dense LU; the message names
            the closed communicating classes.
        ConvergenceError
            GMRES stalled before reaching :data:`GMRES_TOL`; the error
            carries the iteration count, residual and residual history.
        """
        if self._pi is None:
            method = self.resolve_method()
            with obs.span("solve.steady", method=method, n=self.n):
                try:
                    self._pi = self._solve_steady_state(method)
                except NumericalSolveError as exc:
                    diagnosis = self.reducibility_diagnosis()
                    if diagnosis is not None:
                        raise NumericalSolveError(f"{exc} — {diagnosis}") from exc
                    raise
        return self._pi.copy()

    def resolve_method(self) -> str:
        """The solver this chain's steady state runs (``"lu"``/``"gmres"``)."""
        return resolve_steady_state_method(self.n)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def communicating_classes(self):
        """Strongly-connected-component structure of the transition graph.

        Returns a :class:`repro.verify.chain.ChainClassification`; one
        ``O(n + nnz)`` pass, independent of the rates' magnitudes (only
        the sparsity pattern matters).
        """
        from repro.verify.chain import classify_states

        coo = self.Q_sparse.tocoo()
        mask = coo.data != 0.0
        return classify_states(self.n, coo.row[mask], coo.col[mask])

    def is_irreducible(self) -> bool:
        """True when every state communicates with every other state."""
        return self.communicating_classes().is_irreducible

    def reducibility_diagnosis(self) -> Optional[str]:
        """Why ``pi Q = 0`` has no unique root, or ``None`` if it does.

        Names the closed communicating classes by their state labels so a
        failed steady-state solve can report *which* parts of the chain
        fragment, instead of the bare ``singular generator``.
        """
        classification = self.communicating_classes()
        if classification.has_unique_stationary:
            return None
        closed = classification.closed_members()
        parts = [
            f"class of {self.labels[members[0]]!r} ({len(members)} state(s))"
            for members in closed[:3]
        ]
        if len(closed) > 3:
            parts.append(f"+{len(closed) - 3} more")
        return (
            f"the chain is reducible: {len(closed)} closed communicating "
            f"classes ({'; '.join(parts)}), so no unique stationary "
            "distribution exists"
        )

    def seed_steady_state(self, pi: np.ndarray) -> None:
        """Install an externally solved stationary vector (e.g. a sweep
        backend's shared-template solve); :meth:`steady_state` returns it."""
        pi = np.asarray(pi, dtype=np.float64)
        if pi.shape != (self.n,):
            raise ValueError(f"pi must have shape ({self.n},)")
        self._pi = pi.copy()

    def _solve_steady_state(self, method: str) -> np.ndarray:
        if method == "gmres":
            return gmres_steady_state(self.Q_sparse, cache=self._factor_cache)
        return _finalize_pi(dense_steady_state(self.Q))

    def steady_state_dict(self) -> Dict[Hashable, float]:
        """Stationary distribution keyed by state label."""
        pi = self.steady_state()
        return {s: float(pi[i]) for i, s in enumerate(self.labels)}

    def _uniformized(self) -> Tuple[float, Callable[[np.ndarray], np.ndarray]]:
        """``(Lambda, matvec)`` for ``P = I + Q / Lambda`` (cached).

        ``matvec(v)`` computes ``v @ P`` — densely as a BLAS gemv, sparsely
        as a CSR matvec with the transposed uniformized matrix.
        """
        if self._unif is None:
            lam = float(np.max(self._exit_rates))
            if lam > 0.0:
                lam *= 1.000000001  # strictly dominate the diagonal
            if self.backend == "sparse":
                PT = (
                    sparse.eye(self.n, format="csr")
                    + self.Q_sparse.T.tocsr() / lam
                ).tocsr() if lam > 0.0 else None

                def matvec(v: np.ndarray, _PT=PT) -> np.ndarray:
                    return _PT @ v
            else:
                P = np.eye(self.n) + self.Q / lam if lam > 0.0 else None

                def matvec(v: np.ndarray, _P=P) -> np.ndarray:
                    return v @ _P

            self._unif = (lam, matvec)
        return self._unif

    def _advance(self, p: np.ndarray, dt: float, tol: float) -> np.ndarray:
        """Advance distribution *p* by *dt* via uniformization."""
        if dt == 0.0:
            return p
        lam, matvec = self._uniformized()
        if lam == 0.0:  # absorbing everywhere: nothing moves
            return p
        x = lam * dt
        # Poisson weights with scaling for large x: iterate in log space.
        log_w = -x  # log Poisson(0)
        vec = p.copy()
        acc = np.zeros(self.n)
        k = 0
        log_tail_bound = math.log(tol)
        # upper bound on needed terms: mean + 10 sqrt(mean) + 50
        k_max = int(x + 10.0 * math.sqrt(x) + 50.0)
        cumulative = 0.0
        while k <= k_max:
            w = math.exp(log_w)
            acc += w * vec
            cumulative += w
            if cumulative >= 1.0 - tol and k >= x:
                break
            vec = matvec(vec)
            k += 1
            log_w += math.log(x) - math.log(k)
            if log_w < log_tail_bound and k > x:
                break
        # renormalise the truncated sum
        total = acc.sum()
        if total > 0:
            acc /= total
        return acc

    def transient(
        self,
        p0: Union[np.ndarray, Mapping[Hashable, float]],
        t: float,
        tol: float = 1e-12,
    ) -> np.ndarray:
        """Distribution at time *t* from initial distribution *p0*.

        Uses uniformization: with ``Lambda >= max_i |Q_ii|`` and
        ``P = I + Q / Lambda``,

        ``pi(t) = sum_k Poisson(k; Lambda t) * p0 P^k``

        truncated when the Poisson tail drops below *tol*.  All terms are
        non-negative, so the method is numerically stable for any horizon.
        Under the sparse backend each term costs one CSR matvec.
        """
        if t < 0.0:
            raise ValueError("t must be >= 0")
        p = self._coerce_distribution(p0)
        if t == 0.0:
            return p
        return self._advance(p, t, tol)

    def advance(
        self,
        p: Union[np.ndarray, Mapping[Hashable, float]],
        dt: float,
        tol: float = 1e-12,
    ) -> np.ndarray:
        """One incremental uniformization step: the distribution *dt* later.

        Unlike :meth:`transient`, which always starts from ``t = 0``,
        this lets callers walk a trajectory forward step by step — the
        total cost over a horizon is one uniformization pass instead of
        one per sample point.  *p* must already be a distribution.
        """
        if dt < 0.0:
            raise ValueError("dt must be >= 0")
        return self._advance(self._coerce_distribution(p), dt, tol)

    def transient_dict(
        self, p0: Union[np.ndarray, Mapping[Hashable, float]], t: float
    ) -> Dict[Hashable, float]:
        vec = self.transient(p0, t)
        return {s: float(vec[i]) for i, s in enumerate(self.labels)}

    # ------------------------------------------------------------------ #
    # rewards
    # ------------------------------------------------------------------ #
    def expected_reward_rate(
        self, rewards: Union[np.ndarray, Mapping[Hashable, float]]
    ) -> float:
        """Steady-state expected reward rate ``sum_i pi_i r_i``.

        With per-state power draws as rewards this is the chain's average
        power, and ``average power * horizon`` is the paper's Equation 25.
        """
        r = self._coerce_rewards(rewards)
        return float(self.steady_state() @ r)

    def accumulated_reward(
        self,
        p0: Union[np.ndarray, Mapping[Hashable, float]],
        rewards: Union[np.ndarray, Mapping[Hashable, float]],
        t: float,
        steps: int = 256,
        tol: float = 1e-12,
    ) -> float:
        """Expected accumulated reward over ``[0, t]`` (composite Simpson).

        Integrates ``pi(s) . r`` over the horizon, stepping the transient
        distribution forward *incrementally* between quadrature nodes: one
        uniformization pass over the whole horizon instead of a fresh pass
        from ``t = 0`` per node, so the cost is ``O(Lambda t)`` matvecs
        rather than ``O(steps * Lambda t)``.  Accurate enough for energy
        accounting (the integrand is smooth and bounded).
        """
        if steps < 2:
            raise ValueError("steps must be >= 2")
        if steps % 2:
            steps += 1
        r = self._coerce_rewards(rewards)
        p = self._coerce_distribution(p0)
        h = t / steps
        vals = np.empty(steps + 1)
        vals[0] = p @ r
        for i in range(1, steps + 1):
            p = self._advance(p, h, tol)
            vals[i] = p @ r
        return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def holding_rate(self, state: Hashable) -> float:
        """Total exit rate of *state*."""
        return float(self._exit_rates[self._index[state]])

    def embedded_dtmc(self) -> "np.ndarray":
        """Jump-chain transition matrix (rows of absorbing states self-loop)."""
        n = self.n
        Q = self.Q
        P = np.zeros((n, n))
        for i in range(n):
            out = -Q[i, i]
            if out <= 0.0:
                P[i, i] = 1.0
            else:
                P[i, :] = Q[i, :] / out
                P[i, i] = 0.0
        return P

    def _coerce_distribution(
        self, p0: Union[np.ndarray, Mapping[Hashable, float]]
    ) -> np.ndarray:
        if isinstance(p0, Mapping):
            vec = np.zeros(self.n)
            for s, p in p0.items():
                vec[self._index[s]] = p
        else:
            vec = np.asarray(p0, dtype=np.float64)
        if vec.shape != (self.n,):
            raise ValueError(f"distribution must have shape ({self.n},)")
        if np.any(vec < -1e-12) or not math.isclose(float(vec.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("initial distribution must be non-negative and sum to 1")
        return np.clip(vec, 0.0, None)

    def _coerce_rewards(
        self, rewards: Union[np.ndarray, Mapping[Hashable, float]]
    ) -> np.ndarray:
        if isinstance(rewards, Mapping):
            vec = np.zeros(self.n)
            for s, r in rewards.items():
                vec[self._index[s]] = r
            return vec
        vec = np.asarray(rewards, dtype=np.float64)
        if vec.shape != (self.n,):
            raise ValueError(f"rewards must have shape ({self.n},)")
        return vec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(n={self.n}, backend={self.backend!r})"
