"""The paper's primary contribution: CPU energy models for WSN processors.

Five interchangeable models of the same power-managed CPU (Poisson(λ)
arrivals, exp(μ) service, constant power-down threshold ``T`` and power-up
delay ``D``), each answering "what fraction of time does the CPU spend
idle / standby / powering-up / active, and how much energy does it burn":

===============  ==========================================  ==============
Model            Implementation                              Paper section
===============  ==========================================  ==============
``simulation``   :class:`~repro.core.simulation_cpu.CPUEventSimulator`
                 (event-driven) and
                 :func:`~repro.core.simulation_cpu.simulate_job_scan`
                 (fast job-scan)                              §5 benchmark
``markov``       :class:`~repro.core.markov_supplementary.MarkovSupplementaryModel`
                 — closed forms, eqs. 11–24                   §4.1
``petri``        :class:`~repro.core.petri_cpu.PetriCPUModel`
                 — the Figure 3 EDSPN on the library's
                 Petri engine                                 §4.2
``exact``        :class:`~repro.core.exact_renewal.ExactRenewalModel`
                 — exact renewal-reward closed form           (extension)
``phase_type``   :class:`~repro.core.phase_type.PhaseTypeModel`
                 — Erlang-k stage expansion CTMC              (extension)
===============  ==========================================  ==============

:mod:`repro.core.comparison` sweeps any subset of them over a threshold
grid and computes the paper's Table 4 / Table 5 delta statistics;
:mod:`repro.core.energy` holds the eq.-25 energy accounting.

Importing the package does not import scipy.  ``TransientCurve`` and
``TransientEnergyModel`` (:mod:`repro.core.transient`, which integrates
the phase-type chain with scipy's ``expm_multiply``) are resolved on first
access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.comparison import (
    MODEL_NAMES,
    SweepConfig,
    SweepResult,
    delta_energy,
    delta_state_percent,
    delta_table,
    energy_delta_table,
    run_threshold_sweep,
)
from repro.core.energy import (
    average_power_mw,
    battery_lifetime_seconds,
    energy_breakdown_joules,
    energy_joules,
)
from repro.core.exact_renewal import ExactRenewalModel, ExactSteadyState
from repro.core.markov_supplementary import (
    MarkovSteadyState,
    MarkovSupplementaryModel,
)
from repro.core.params import (
    PAPER_TOTAL_SIMULATED_TIME,
    PXA271,
    CPUModelParams,
    PowerProfile,
    StateFractions,
)
from repro.core.petri_cpu import (
    PetriCPUModel,
    PetriCPUResult,
    build_cpu_net,
    describe_transitions,
)
from repro.core.phase_type import PhaseTypeModel, PhaseTypeSolution
from repro.core.simulation_cpu import (
    CPUEventSimulator,
    CPUSimulationResult,
    replicate_cpu_simulation,
    simulate_job_scan,
)

__all__ = [
    "CPUEventSimulator",
    "CPUModelParams",
    "CPUSimulationResult",
    "ExactRenewalModel",
    "ExactSteadyState",
    "MODEL_NAMES",
    "MarkovSteadyState",
    "MarkovSupplementaryModel",
    "PAPER_TOTAL_SIMULATED_TIME",
    "PXA271",
    "PetriCPUModel",
    "PetriCPUResult",
    "PhaseTypeModel",
    "PhaseTypeSolution",
    "PowerProfile",
    "StateFractions",
    "SweepConfig",
    "SweepResult",
    "TransientCurve",
    "TransientEnergyModel",
    "average_power_mw",
    "battery_lifetime_seconds",
    "build_cpu_net",
    "delta_energy",
    "delta_state_percent",
    "delta_table",
    "describe_transitions",
    "energy_breakdown_joules",
    "energy_delta_table",
    "energy_joules",
    "replicate_cpu_simulation",
    "run_threshold_sweep",
    "simulate_job_scan",
]

if TYPE_CHECKING:
    from repro.core.transient import TransientCurve, TransientEnergyModel

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.transient": ("TransientCurve", "TransientEnergyModel"),
})
