"""repro — Energy modeling of WSN processors with Petri nets.

A from-scratch reproduction of *"Energy Modeling of Processors in Wireless
Sensor Networks based on Petri Nets"* (Shareef & Zhu, ICPP 2008): five
interchangeable models of a power-managed CPU (discrete-event simulation,
supplementary-variable Markov closed forms, an EDSPN Petri net, an exact
renewal-reward solution, and an Erlang phase-type CTMC) plus every
substrate they need — a DES kernel, a Markov-chain/queueing toolbox, and a
TimeNET-style stochastic Petri net engine.

Quick start::

    from repro.core import CPUModelParams, MarkovSupplementaryModel
    from repro.core import PetriCPUModel, CPUEventSimulator

    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)
    print(MarkovSupplementaryModel(params).solve().fractions().as_percent_dict())
    print(PetriCPUModel(params, seed=1).run(horizon=5000).fractions.as_percent_dict())
    print(CPUEventSimulator(params, seed=2).run(horizon=5000).fractions.as_percent_dict())

Subpackages
-----------
- :mod:`repro.core` — the paper's models and the comparison machinery.
- :mod:`repro.petri` — the EDSPN engine (places, immediate/timed
  transitions, inhibitor arcs, simulation, reachability, CTMC export).
- :mod:`repro.markov` — CTMC numerics and queueing closed forms.
- :mod:`repro.des` — the discrete-event kernel (events, RNG streams,
  distributions, output statistics, replications).
- :mod:`repro.sweep` — batched parameter sweeps: rate grids, a
  rebinding sweep runner with optional multiprocessing fan-out, result
  tables (also via ``python -m repro sweep``).
- :mod:`repro.workload` — open/closed/MMPP/trace workload generators.
- :mod:`repro.wsn` — sensor-node context: power profiles, radio, battery,
  network lifetime.
- :mod:`repro.experiments` — regenerate the paper's Figures 4–5 and
  Tables 1–5 (also via ``python -m repro run <id>``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
