"""Textbook queueing closed forms.

These are the analytical ground truths the library's simulators and Petri
nets are validated against:

- :class:`MM1Queue` — the paper's underlying arrival/service model with the
  power management stripped away (its ``T -> inf`` limit).
- :class:`MM1KQueue` — finite-buffer variant (validates the Petri net
  engine's inhibitor-arc capacity modelling).
- :class:`MMcQueue` — multi-server Erlang-C.
- :class:`MG1Queue` / :class:`MD1Queue` — Pollaczek–Khinchine results, used
  to validate general service-time distributions in the DES kernel.
- :func:`little_l` / :func:`little_w` — Little's-law conversions (the paper
  applies Little's law in its Equation 22).

All quantities use the standard notation: ``L`` mean number in system,
``Lq`` mean number in queue, ``W`` mean time in system (latency), ``Wq``
mean waiting time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MM1Queue",
    "MM1KQueue",
    "MMcQueue",
    "MG1Queue",
    "MD1Queue",
    "MachineRepairQueue",
    "little_l",
    "little_w",
]


def little_l(arrival_rate: float, mean_time: float) -> float:
    """Little's law: ``L = lambda * W``."""
    return arrival_rate * mean_time


def little_w(mean_number: float, arrival_rate: float) -> float:
    """Little's law solved for latency: ``W = L / lambda``."""
    if arrival_rate <= 0.0:
        raise ValueError("arrival rate must be > 0")
    return mean_number / arrival_rate


@dataclass(frozen=True)
class MM1Queue:
    """M/M/1: Poisson(λ) arrivals, exp(μ) service, infinite buffer."""

    arrival_rate: float
    service_rate: float

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.service_rate <= 0.0:
            raise ValueError("rates must be > 0")
        if self.utilization >= 1.0:
            raise ValueError(
                f"unstable queue: rho = {self.utilization:.4g} >= 1"
            )

    @property
    def utilization(self) -> float:
        """``rho = lambda / mu`` — also the long-run busy fraction."""
        return self.arrival_rate / self.service_rate

    def p_n(self, n: int) -> float:
        """Stationary probability of *n* jobs in system."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rho = self.utilization
        return (1.0 - rho) * rho**n

    def mean_number_in_system(self) -> float:
        rho = self.utilization
        return rho / (1.0 - rho)

    def mean_number_in_queue(self) -> float:
        rho = self.utilization
        return rho * rho / (1.0 - rho)

    def mean_latency(self) -> float:
        return 1.0 / (self.service_rate - self.arrival_rate)

    def mean_waiting_time(self) -> float:
        return self.utilization / (self.service_rate - self.arrival_rate)


@dataclass(frozen=True)
class MM1KQueue:
    """M/M/1/K: as M/M/1 but at most *K* jobs in the system (arrivals lost)."""

    arrival_rate: float
    service_rate: float
    capacity: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.service_rate <= 0.0:
            raise ValueError("rates must be > 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    @property
    def offered_load(self) -> float:
        return self.arrival_rate / self.service_rate

    def p_n(self, n: int) -> float:
        """Stationary probability of *n* in system (0 <= n <= K)."""
        if not (0 <= n <= self.capacity):
            raise ValueError(f"n must be in [0, {self.capacity}]")
        a = self.offered_load
        K = self.capacity
        if math.isclose(a, 1.0):
            return 1.0 / (K + 1)
        if a > 1.0:
            # in powers of 1/a: a ** (K + 1) overflows for a large K
            b = 1.0 / a
            return (a - 1.0) * b ** (K + 1 - n) / (1.0 - b ** (K + 1))
        return (1.0 - a) * a**n / (1.0 - a ** (K + 1))

    def blocking_probability(self) -> float:
        """Fraction of arrivals lost (PASTA: equals ``p_K``)."""
        return self.p_n(self.capacity)

    def mean_number_in_system(self) -> float:
        a = self.offered_load
        K = self.capacity
        if math.isclose(a, 1.0):
            return K / 2.0
        if a > 1.0:
            return a / (1.0 - a) + (K + 1) / (1.0 - (1.0 / a) ** (K + 1))
        return a / (1.0 - a) - (K + 1) * a ** (K + 1) / (1.0 - a ** (K + 1))

    def effective_arrival_rate(self) -> float:
        return self.arrival_rate * (1.0 - self.blocking_probability())

    def mean_latency(self) -> float:
        """Latency of *accepted* jobs, by Little's law."""
        return self.mean_number_in_system() / self.effective_arrival_rate()

    def utilization(self) -> float:
        """Fraction of time the server is busy (``1 - p_0``)."""
        return 1.0 - self.p_n(0)


@dataclass(frozen=True)
class MMcQueue:
    """M/M/c: Poisson arrivals, c identical exponential servers (Erlang C)."""

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.service_rate <= 0.0:
            raise ValueError("rates must be > 0")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.utilization >= 1.0:
            raise ValueError(
                f"unstable queue: rho = {self.utilization:.4g} >= 1"
            )

    @property
    def offered_load(self) -> float:
        """``a = lambda / mu`` in Erlangs."""
        return self.arrival_rate / self.service_rate

    @property
    def utilization(self) -> float:
        return self.offered_load / self.servers

    def erlang_c(self) -> float:
        """Probability an arriving job must wait (all servers busy)."""
        a = self.offered_load
        c = self.servers
        # sum in log-stable iterative form
        term = 1.0
        total = 1.0
        for k in range(1, c):
            term *= a / k
            total += term
        term_c = term * a / c  # a^c / c!
        tail = term_c / (1.0 - self.utilization)
        return tail / (total + tail)

    def mean_number_in_queue(self) -> float:
        rho = self.utilization
        return self.erlang_c() * rho / (1.0 - rho)

    def mean_number_in_system(self) -> float:
        return self.mean_number_in_queue() + self.offered_load

    def mean_waiting_time(self) -> float:
        return self.mean_number_in_queue() / self.arrival_rate

    def mean_latency(self) -> float:
        return self.mean_waiting_time() + 1.0 / self.service_rate


@dataclass(frozen=True)
class MG1Queue:
    """M/G/1 via Pollaczek–Khinchine.

    Parameterised by the service-time mean and squared coefficient of
    variation, so any :class:`~repro.des.distributions.Distribution` maps
    onto it directly.
    """

    arrival_rate: float
    service_mean: float
    service_cv2: float

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.service_mean <= 0.0:
            raise ValueError("rates must be > 0")
        if self.service_cv2 < 0.0:
            raise ValueError("cv^2 must be >= 0")
        if self.utilization >= 1.0:
            raise ValueError(
                f"unstable queue: rho = {self.utilization:.4g} >= 1"
            )

    @property
    def utilization(self) -> float:
        return self.arrival_rate * self.service_mean

    def mean_waiting_time(self) -> float:
        """P-K formula: ``Wq = rho (1 + cv^2) E[S] / (2 (1 - rho))``."""
        rho = self.utilization
        return rho * (1.0 + self.service_cv2) * self.service_mean / (
            2.0 * (1.0 - rho)
        )

    def mean_latency(self) -> float:
        return self.mean_waiting_time() + self.service_mean

    def mean_number_in_queue(self) -> float:
        return self.arrival_rate * self.mean_waiting_time()

    def mean_number_in_system(self) -> float:
        return self.arrival_rate * self.mean_latency()


def MD1Queue(arrival_rate: float, service_time: float) -> MG1Queue:
    """M/D/1 — deterministic service is M/G/1 with ``cv^2 = 0``."""
    return MG1Queue(arrival_rate, service_time, 0.0)


@dataclass(frozen=True)
class MachineRepairQueue:
    """M/M/1//N — finite source (machine repairman / interactive users).

    *N* clients alternate between thinking (exp, rate ``think_rate`` each)
    and queueing at a single exponential server (rate ``service_rate``) —
    exactly the closed workload of the paper's Section 4.1 with exponential
    think times, so :class:`repro.workload.closed_workload.ClosedCPUSimulator`
    (without power management) is validated against these closed forms.
    """

    n_clients: int
    think_rate: float
    service_rate: float

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.think_rate <= 0.0 or self.service_rate <= 0.0:
            raise ValueError("rates must be > 0")

    def state_probabilities(self) -> "list[float]":
        """P(n jobs at the server), n = 0..N (product form, log-stable)."""
        import numpy as np

        n = self.n_clients
        log_w = [0.0]
        for k in range(1, n + 1):
            # birth rate from k-1: (N-k+1) * think; death rate: service
            log_w.append(
                log_w[-1]
                + math.log((n - k + 1) * self.think_rate)
                - math.log(self.service_rate)
            )
        arr = np.exp(np.asarray(log_w) - max(log_w))
        arr /= arr.sum()
        return [float(x) for x in arr]

    def utilization(self) -> float:
        """Server busy probability ``1 - p_0``."""
        return 1.0 - self.state_probabilities()[0]

    def throughput(self) -> float:
        """Completed jobs per unit time ``mu (1 - p_0)``."""
        return self.service_rate * self.utilization()

    def mean_number_at_server(self) -> float:
        probs = self.state_probabilities()
        return float(sum(n * p for n, p in enumerate(probs)))

    def mean_response_time(self) -> float:
        """Interactive response-time law: ``R = N / X - 1 / think_rate``."""
        return self.n_clients / self.throughput() - 1.0 / self.think_rate
