"""Set-up probe: a fresh interpreter gets ready for one workload, then
prints ``ready``.  The parent times it from spawn to that line.

    python3 perfbench/probe.py paper-tables|sweep-stages

``paper-tables`` imports the comparison layer and builds the Figure 3
net; ``sweep-stages`` imports the sweep package and prepares both
phase-type backends at every stage count of the workload.
"""

import sys


def main(workload: str) -> None:
    if workload == "paper-tables":
        from repro.core.comparison import run_threshold_sweep  # noqa: F401
        from repro.core.params import CPUModelParams
        from repro.core.petri_cpu import PetriCPUModel

        PetriCPUModel(CPUModelParams.paper_defaults())
    elif workload == "sweep-stages":
        from repro.sweep import BatchedPhaseTypeBackend, PhaseTypeBackend, SweepRunner  # noqa: F401
        from sweep_stages import STAGES

        for stages in STAGES:
            PhaseTypeBackend(stages=stages).prepare()
            BatchedPhaseTypeBackend(stages=stages).prepare()
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
