"""Demo GSPNs for the sweep CLI and examples.

Three exponential-only seed nets:

- ``mm1k`` — the M/M/1/K queue as a two-place net (the same net the CTMC
  export is validated against in the test suite), scaled up so sweeps have
  a non-trivial state space;
- ``cpu-gspn`` — the paper's Figure 3 CPU net with its two deterministic
  transitions (PDT, PUT) replaced by exponentials of the same mean.  This
  is the "naive Markov" baseline (Erlang-1 phase-type) of the paper's
  Section 4.1 discussion: solvable exactly as a GSPN, so rate sweeps over
  arrival/service/threshold rates run through the batched analytical path;
- ``wsn-cluster`` — a multi-node composition: ``n_nodes`` sensor nodes,
  each with its own bounded sample buffer, contending for one shared
  radio channel.  Its state space is a *product* space
  (``(K+1)^n * (n+1)`` markings), so modest knobs produce chains deep in
  GMRES territory — the demo scenario for the steady-state size rule,
  which solves chains past 500 states by GMRES (``repro-experiments
  steady --net wsn-cluster --buffer 30``).

Plus one *deliberately broken* net:

- ``deadlock`` — two processes acquiring two shared locks in opposite
  order, the classic hold-and-wait deadlock.  It exists to demonstrate
  the verification subsystem: ``repro-experiments lint --net deadlock``
  flags the unmarked siphon (``PN004``) structurally, and any steady-state
  sweep over it is aborted by the preflight (``CH001``: the dead marking
  where each process holds one lock) before a single point is solved.

Each registry entry carries default sweep metrics so the CLI can run a
meaningful sweep with nothing but ``--net`` and ``--rate``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.params import CPUModelParams
from repro.core.petri_cpu import build_cpu_net
from repro.des.distributions import Exponential
from repro.petri.net import PetriNet
from repro.petri.transitions import TimedTransition

__all__ = [
    "build_mm1k_net",
    "build_cpu_gspn_net",
    "build_deadlock_net",
    "build_wsn_cluster_net",
    "DEMO_NETS",
]


def build_mm1k_net(lam: float = 1.0, mu: float = 2.0, K: int = 40) -> PetriNet:
    """M/M/1/K as a GSPN: ``free`` seats and a ``queue`` place."""
    net = PetriNet("mm1k")
    net.add_place("free", initial=K)
    net.add_place("queue")
    net.add_timed_transition("arrive", Exponential(lam))
    net.add_input_arc("free", "arrive")
    net.add_output_arc("arrive", "queue")
    net.add_timed_transition("serve", Exponential(mu))
    net.add_input_arc("queue", "serve")
    net.add_output_arc("serve", "free")
    return net


def build_cpu_gspn_net(
    params: Optional[CPUModelParams] = None, buffer_capacity: int = 25
) -> PetriNet:
    """Figure 3 CPU net with deterministic delays made exponential.

    PDT's constant idle threshold ``T`` becomes ``Exponential(1/T)`` and
    PUT's constant wake-up delay ``D`` becomes ``Exponential(1/D)`` — the
    Erlang-1 approximation.  The result is exponential-only, hence exactly
    solvable via :class:`repro.petri.ctmc_export.GSPNSolver`, and its
    ``PDT``/``PUT`` rates are sweepable axes (sweeping ``PDT``'s rate is
    sweeping the *mean* power-down threshold ``1/rate``).  ``CPU_Buffer``
    is bounded at *buffer_capacity* so the reachability graph is finite.
    """
    if params is None:
        params = CPUModelParams.paper_defaults(T=0.3, D=0.001)
    net = build_cpu_net(params, buffer_capacity=buffer_capacity)
    # swap the two deterministic timers before the net is ever compiled
    for name, mean in (
        ("PDT", max(params.power_down_threshold, 1e-9)),
        ("PUT", max(params.power_up_delay, 1e-9)),
    ):
        trans = net.transition(name)
        assert isinstance(trans, TimedTransition)
        trans.distribution = Exponential(1.0 / mean)
    return net


def build_wsn_cluster_net(
    n_nodes: int = 3,
    buffer_capacity: int = 12,
    arrival_rate: float = 0.8,
    send_rate: float = 2.0,
    release_rate: float = 8.0,
) -> PetriNet:
    """``n_nodes`` sensor nodes sharing one radio channel.

    Each node ``i`` samples readings into a bounded buffer ``buf<i>``
    (exponential arrivals ``arr<i>``; arrivals block while the buffer is
    full) and drains it over the radio: ``snd<i>`` grabs the single
    ``ch`` (channel) token and moves one reading into transmission
    (``tx<i>``), ``rel<i>`` completes the transmission and releases the
    channel.  Channel contention couples the nodes, so the chain does not
    factor into independent queues.

    The tangible state space is the product of the per-node buffer levels
    times the channel owner — ``(buffer_capacity + 1)**n_nodes *
    (n_nodes + 1)`` markings — which makes this the scaling scenario for
    the GMRES steady-state path: the defaults give ~8.8k states,
    ``n_nodes=3, buffer_capacity=30`` already ~119k (past any comfortable
    direct-LU size), every one of them an exponential-only GSPN solvable
    through :class:`~repro.petri.ctmc_export.GSPNSolver`.

    Sweepable axes are the per-node rates (``arr0``, ``snd0``, ``rel0``,
    ...).
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if buffer_capacity < 1:
        raise ValueError(
            f"buffer_capacity must be >= 1, got {buffer_capacity}"
        )
    net = PetriNet("wsn_cluster")
    net.add_place("ch", initial=1)
    for i in range(n_nodes):
        net.add_place(f"buf{i}", capacity=buffer_capacity)
        net.add_place(f"tx{i}")
        net.add_timed_transition(f"arr{i}", Exponential(arrival_rate))
        net.add_output_arc(f"arr{i}", f"buf{i}")
        net.add_timed_transition(f"snd{i}", Exponential(send_rate))
        net.add_input_arc(f"buf{i}", f"snd{i}")
        net.add_input_arc("ch", f"snd{i}")
        net.add_output_arc(f"snd{i}", f"tx{i}")
        net.add_timed_transition(f"rel{i}", Exponential(release_rate))
        net.add_input_arc(f"tx{i}", f"rel{i}")
        net.add_output_arc(f"rel{i}", "ch")
    return net


def build_deadlock_net(
    acquire_rate: float = 1.0, release_rate: float = 2.0
) -> PetriNet:
    """Two processes, two locks, opposite acquisition order — deadlockable.

    Process ``p`` takes ``lockA`` then ``lockB``; process ``q`` takes
    ``lockB`` then ``lockA``; both release everything when done.  The
    marking where each holds its first lock is dead: each waits forever
    for the lock the other holds.  This net is *intentionally* broken —
    it is the demo subject for ``repro-experiments lint`` (the siphon
    ``{lockA, lockB, p_working, q_working}`` has no marked trap → PN004)
    and for the sweep preflight, which names the dead marking (CH001)
    and aborts before any grid point is solved.
    """
    net = PetriNet("deadlock")
    net.add_place("lockA", initial=1)
    net.add_place("lockB", initial=1)
    for proc, first, second in (
        ("p", "lockA", "lockB"),
        ("q", "lockB", "lockA"),
    ):
        net.add_place(f"{proc}_idle", initial=1)
        net.add_place(f"{proc}_has_first")
        net.add_place(f"{proc}_working")
        net.add_timed_transition(f"{proc}_get1", Exponential(acquire_rate))
        net.add_input_arc(f"{proc}_idle", f"{proc}_get1")
        net.add_input_arc(first, f"{proc}_get1")
        net.add_output_arc(f"{proc}_get1", f"{proc}_has_first")
        net.add_timed_transition(f"{proc}_get2", Exponential(acquire_rate))
        net.add_input_arc(f"{proc}_has_first", f"{proc}_get2")
        net.add_input_arc(second, f"{proc}_get2")
        net.add_output_arc(f"{proc}_get2", f"{proc}_working")
        net.add_timed_transition(f"{proc}_done", Exponential(release_rate))
        net.add_input_arc(f"{proc}_working", f"{proc}_done")
        net.add_output_arc(f"{proc}_done", first)
        net.add_output_arc(f"{proc}_done", second)
        net.add_output_arc(f"{proc}_done", f"{proc}_idle")
    return net


#: name -> (net factory, default sweep metrics)
DEMO_NETS: Dict[str, Tuple[Callable[[], PetriNet], Tuple[str, ...]]] = {
    "mm1k": (
        build_mm1k_net,
        ("mean_tokens:queue", "probability_positive:queue", "throughput:serve"),
    ),
    "cpu-gspn": (
        build_cpu_gspn_net,
        ("mean_tokens:Active", "mean_tokens:Stand_By", "throughput:SR"),
    ),
    "wsn-cluster": (
        build_wsn_cluster_net,
        ("mean_tokens:buf0", "probability_positive:ch", "throughput:rel0"),
    ),
    "deadlock": (
        build_deadlock_net,
        ("mean_tokens:p_working", "probability_positive:lockA", "throughput:p_done"),
    ),
}
