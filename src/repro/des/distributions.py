"""Distribution objects for timed events.

Every delay in the library — inter-arrival times, service times, Petri net
transition firing delays — is described by a :class:`Distribution`.  A
distribution knows how to sample (scalar and vectorised), and reports its
exact mean and variance so tests can check sampled moments against theory.

The vectorised ``sample_array`` path matters for performance: the fast
regenerative CPU simulator and the workload generators pre-draw large blocks
of variates with one NumPy call instead of one Python-level call per event
(see the optimisation guides: vectorise the hot loop, not the cold one).

The event simulators draw one variate at a time, so they take their draws
from :meth:`Distribution.sampler` instead: a ``(draw, settle)`` pair whose
``draw()`` returns exactly what ``sample(rng)`` would and whose
``settle()`` leaves the stream exactly where that many ``sample`` calls
would have.  An exponential sampler serves its draws from one array fill
of :data:`CHUNK` values at a time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from itertools import chain
from operator import length_hint
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Erlang",
    "Gamma",
    "HyperExponential",
    "Pareto",
    "Weibull",
    "LogNormal",
    "TruncatedNormal",
    "Empirical",
]

#: Variates an exponential sampler draws per array fill.  A paper run's
#: timers draw about 2 000 values each; 1 024 was no faster than 256 on
#: the paper tables and raised their peak RSS by about 0.1 MiB.
CHUNK = 256

Sampler = Tuple[Callable[[], float], Callable[[], None]]


def _settled() -> None:
    """The base sampler's ``settle``: every draw already went to the stream."""


class Distribution(ABC):
    """A non-negative random delay."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate."""

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* variates as a float64 array (vectorised where possible)."""
        return np.fromiter(
            (self.sample(rng) for _ in range(n)), dtype=np.float64, count=n
        )

    def sampler(self, rng: np.random.Generator) -> Sampler:
        """A ``(draw, settle)`` pair of zero-argument callables over *rng*.

        ``draw()`` returns exactly what ``self.sample(rng)`` would return
        at that point of the stream.  ``settle()`` leaves *rng* exactly
        where the same number of ``sample`` calls would have left it; call
        it once the draws are done (also when they stop on an error), and
        draw no more afterwards.  Here every draw is one ``sample`` call,
        so there is nothing to settle.
        """
        return partial(self.sample, rng), _settled

    @abstractmethod
    def mean(self) -> float:
        """Exact expectation."""

    @abstractmethod
    def variance(self) -> float:
        """Exact variance."""

    def cv2(self) -> float:
        """Squared coefficient of variation (variance / mean^2)."""
        m = self.mean()
        if m == 0.0:
            return 0.0
        return self.variance() / (m * m)

    def is_immediate(self) -> bool:
        """True when the delay is identically zero."""
        return False


class Deterministic(Distribution):
    """A constant delay — the paper's Power-Down-Threshold and Power-Up-Delay.

    ``Deterministic(0.0)`` is a valid degenerate case (an immediate delay).
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"deterministic delay must be finite and >= 0, got {value}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def is_immediate(self) -> bool:
        return self.value == 0.0

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential delay with the given *rate* (mean ``1/rate``).

    The memoryless workhorse: Poisson arrivals and exponential service in the
    paper's M/M/1-with-power-management model.
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0.0 or not math.isfinite(rate):
            raise ValueError(f"exponential rate must be finite and > 0, got {rate}")
        self.rate = float(rate)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def sampler(self, rng: np.random.Generator) -> Sampler:
        """Draws served from :data:`CHUNK`-value array fills of *rng*.

        An array fill runs the same ziggurat per value as the scalar call,
        so the draws are ``sample``'s bit for bit.  ``draw`` is the
        ``__next__`` of a C-level chain over the fills, which are made on
        demand; the stream state before the current fill is kept, and
        ``settle()`` restores it and redraws only the values that were
        used from that fill.
        """
        scale = 1.0 / self.rate
        bit_generator = rng.bit_generator
        state: Optional[dict] = None
        values: Iterator[float] = iter(())

        def fills() -> Iterator[Iterator[float]]:
            nonlocal state, values
            while True:
                state = bit_generator.state
                values = iter(rng.exponential(scale, CHUNK).tolist())
                yield values

        def settle() -> None:
            left = length_hint(values)
            if left:
                bit_generator.state = state
                rng.exponential(scale, CHUNK - left)

        return chain.from_iterable(fills()).__next__, settle

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"


class Uniform(Distribution):
    """Uniform delay on ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        if not (0.0 <= low <= high) or not math.isfinite(high):
            raise ValueError(f"need 0 <= low <= high < inf, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.uniform(self.low, self.high)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        span = self.high - self.low
        return span * span / 12.0

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class Erlang(Distribution):
    """Erlang-k delay: sum of *k* iid exponentials with the given *rate* each.

    Mean ``k/rate``.  Erlang stages are the classical phase-type
    approximation of a deterministic delay inside a Markov chain — the
    extension model in :mod:`repro.core.phase_type` uses exactly this.
    """

    __slots__ = ("k", "rate")

    def __init__(self, k: int, rate: float) -> None:
        if k < 1:
            raise ValueError(f"Erlang shape k must be >= 1, got {k}")
        if rate <= 0.0 or not math.isfinite(rate):
            raise ValueError(f"Erlang rate must be finite and > 0, got {rate}")
        self.k = int(k)
        self.rate = float(rate)

    @classmethod
    def with_mean(cls, k: int, mean: float) -> "Erlang":
        """Erlang-k with total mean *mean* (each stage has rate ``k/mean``)."""
        if mean <= 0.0:
            raise ValueError("mean must be > 0")
        return cls(k, k / mean)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.k, 1.0 / self.rate)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.k, 1.0 / self.rate, size=n)

    def mean(self) -> float:
        return self.k / self.rate

    def variance(self) -> float:
        return self.k / (self.rate * self.rate)

    def __repr__(self) -> str:
        return f"Erlang(k={self.k!r}, rate={self.rate!r})"


class Gamma(Distribution):
    """Gamma delay with real-valued *shape* and *scale* (mean ``shape*scale``).

    Generalises :class:`Erlang` to non-integer shapes; shapes < 1 give
    delay distributions with CV^2 > 1.
    """

    __slots__ = ("shape", "scale")

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0.0 or scale <= 0.0:
            raise ValueError("Gamma shape and scale must be > 0")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.shape, self.scale)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=n)

    def mean(self) -> float:
        return self.shape * self.scale

    def variance(self) -> float:
        return self.shape * self.scale * self.scale

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape!r}, scale={self.scale!r})"


class Pareto(Distribution):
    """Pareto (Lomax-shifted) delay on ``[minimum, inf)`` with tail index
    *alpha*.

    Heavy-tailed: the mean requires ``alpha > 1`` and the variance
    ``alpha > 2`` (the accessors raise otherwise rather than return a
    misleading number).  Models rare-but-huge sensing bursts.
    """

    __slots__ = ("alpha", "minimum")

    def __init__(self, alpha: float, minimum: float) -> None:
        if alpha <= 0.0 or minimum <= 0.0:
            raise ValueError("Pareto alpha and minimum must be > 0")
        self.alpha = float(alpha)
        self.minimum = float(minimum)

    def sample(self, rng: np.random.Generator) -> float:
        return self.minimum * (1.0 + rng.pareto(self.alpha))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.minimum * (1.0 + rng.pareto(self.alpha, size=n))

    def mean(self) -> float:
        if self.alpha <= 1.0:
            raise ValueError(f"Pareto mean is infinite for alpha={self.alpha}")
        return self.alpha * self.minimum / (self.alpha - 1.0)

    def variance(self) -> float:
        if self.alpha <= 2.0:
            raise ValueError(
                f"Pareto variance is infinite for alpha={self.alpha}"
            )
        a, m = self.alpha, self.minimum
        return m * m * a / ((a - 1.0) ** 2 * (a - 2.0))

    def __repr__(self) -> str:
        return f"Pareto(alpha={self.alpha!r}, minimum={self.minimum!r})"


class HyperExponential(Distribution):
    """Probabilistic mixture of exponentials (CV^2 > 1; bursty service)."""

    __slots__ = ("probs", "rates")

    def __init__(self, probs: Sequence[float], rates: Sequence[float]) -> None:
        p = np.asarray(probs, dtype=np.float64)
        r = np.asarray(rates, dtype=np.float64)
        if p.ndim != 1 or p.shape != r.shape or p.size == 0:
            raise ValueError("probs and rates must be equal-length 1-D sequences")
        if np.any(p < 0) or not math.isclose(float(p.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("probs must be non-negative and sum to 1")
        if np.any(r <= 0):
            raise ValueError("rates must be > 0")
        self.probs = p
        self.rates = r

    def sample(self, rng: np.random.Generator) -> float:
        i = rng.choice(self.probs.size, p=self.probs)
        return rng.exponential(1.0 / self.rates[i])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        branch = rng.choice(self.probs.size, size=n, p=self.probs)
        return rng.exponential(1.0 / self.rates[branch])

    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    def variance(self) -> float:
        second = float(np.sum(2.0 * self.probs / (self.rates**2)))
        m = self.mean()
        return second - m * m

    def __repr__(self) -> str:
        return f"HyperExponential(probs={self.probs.tolist()!r}, rates={self.rates.tolist()!r})"


class Weibull(Distribution):
    """Weibull delay with *shape* and *scale* (mean ``scale * Γ(1 + 1/shape)``)."""

    __slots__ = ("shape", "scale")

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0.0 or scale <= 0.0:
            raise ValueError("Weibull shape and scale must be > 0")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator) -> float:
        return self.scale * rng.weibull(self.shape)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale * self.scale * (g2 - g1 * g1)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class LogNormal(Distribution):
    """Log-normal delay parameterised by the underlying normal ``mu, sigma``."""

    __slots__ = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def with_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Construct from the delay's mean and coefficient of variation."""
        if mean <= 0.0 or cv < 0.0:
            raise ValueError("need mean > 0 and cv >= 0")
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - 0.5 * sigma2
        return cls(mu, math.sqrt(sigma2))

    def sample(self, rng: np.random.Generator) -> float:
        return rng.lognormal(self.mu, self.sigma)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu!r}, sigma={self.sigma!r})"


class TruncatedNormal(Distribution):
    """Normal delay truncated at zero (rejection-sampled).

    Mean/variance reported are those of the *truncated* distribution.
    """

    __slots__ = ("loc", "scale", "_alpha")

    def __init__(self, loc: float, scale: float) -> None:
        if scale <= 0.0:
            raise ValueError("scale must be > 0")
        self.loc = float(loc)
        self.scale = float(scale)
        self._alpha = -self.loc / self.scale

    @staticmethod
    def _phi(x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    @staticmethod
    def _Phi(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    def sample(self, rng: np.random.Generator) -> float:
        while True:
            x = rng.normal(self.loc, self.scale)
            if x >= 0.0:
                return x

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            draw = rng.normal(self.loc, self.scale, size=max(n - filled, 16))
            draw = draw[draw >= 0.0]
            take = min(draw.size, n - filled)
            out[filled : filled + take] = draw[:take]
            filled += take
        return out

    def mean(self) -> float:
        a = self._alpha
        lam = self._phi(a) / (1.0 - self._Phi(a))
        return self.loc + self.scale * lam

    def variance(self) -> float:
        a = self._alpha
        z = 1.0 - self._Phi(a)
        lam = self._phi(a) / z
        delta = lam * (lam - a)
        return self.scale**2 * (1.0 - delta)

    def __repr__(self) -> str:
        return f"TruncatedNormal(loc={self.loc!r}, scale={self.scale!r})"


class Empirical(Distribution):
    """Resampling distribution over observed delays (trace bootstrap)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a non-empty 1-D sequence of delays")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("delays must be finite and >= 0")
        self.values = arr

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.values[rng.integers(self.values.size)])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(self.values.size, size=n)
        return self.values[idx]

    def mean(self) -> float:
        return float(self.values.mean())

    def variance(self) -> float:
        return float(self.values.var())

    def __repr__(self) -> str:
        return f"Empirical(n={self.values.size})"
