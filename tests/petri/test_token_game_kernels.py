"""The token game's generated kernels against the arc-walking definitions.

:func:`~repro.petri.simulator.transition_kernels` turns each transition's
arcs into a straight-line enabling test and a firing function.  On any
plain-list marking they must agree with :meth:`CompiledNet.enabled` and
:meth:`CompiledNet.fire` exactly, the capacity-overflow raise included;
and because they live on the simulator, not on the compiled net, nets,
backends and sweep templates must still pickle after a run.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import CPUModelParams
from repro.core.petri_cpu import PetriCPUModel
from repro.des.distributions import Exponential
from repro.petri.net import NetStructureError, PetriNet
from repro.petri.simulator import PetriNetSimulator, transition_kernels
from repro.sweep import GSPNBackend, SweepRunner, build_cpu_gspn_net
from tests.petri.test_incremental_differential import random_nets

UNSET = object()


def _fire_reference(c, t, marking):
    try:
        c.fire(t, marking)
    except NetStructureError as exc:
        return str(exc)
    return None


def _fire_kernel(fire, marking, flags):
    try:
        fire(marking, flags)
    except NetStructureError as exc:
        return str(exc)
    return None


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(net=random_nets(), data=st.data())
def test_kernels_agree_with_arc_walking(net, data):
    c = net.compile()
    n = len(c.transitions)
    everyone = [range(n)] * n  # refresh every flag after every firing
    tests, fires = transition_kernels(c, everyone)
    n_places = len(c.place_names)
    for _ in range(8):
        # any token counts, over capacity too: the kernels agree everywhere
        marking = data.draw(
            st.lists(st.integers(0, 6), min_size=n_places, max_size=n_places)
        )
        for t in range(n):
            got = tests[t](list(marking))
            assert type(got) is bool and got == c.enabled(t, list(marking))

            want_m, got_m = list(marking), list(marking)
            flags = [UNSET] * n
            want = _fire_reference(c, t, want_m)
            assert _fire_kernel(fires[t], got_m, flags) == want
            assert got_m == want_m
            if want is None:
                assert flags == [c.enabled(j, want_m) for j in range(n)]


def test_overflow_raises_the_arc_walking_error():
    net = PetriNet("bounded")
    net.add_place("src", initial=2)
    net.add_place("a", capacity=3)
    net.add_place("b", capacity=1)
    net.add_timed_transition("t", Exponential(1.0))
    net.add_input_arc("src", "t")
    net.add_output_arc("t", "a", 2)
    net.add_output_arc("t", "b")
    c = net.compile()
    tests, fires = transition_kernels(c, [[0]])
    cases = (([1, 1, 0], None), ([1, 2, 0], "'a'"), ([1, 0, 1], "'b'"))
    for marking, overflow in cases:
        got_m, want_m = list(marking), list(marking)
        want = _fire_reference(c, 0, want_m)
        got = _fire_kernel(fires[0], got_m, [UNSET])
        assert got == want and got_m == want_m
        assert (want is None) if overflow is None else (overflow in want)
        assert tests[0](marking) is (overflow is None)


def test_nets_and_templates_pickle_after_a_run():
    model = PetriCPUModel(CPUModelParams.paper_defaults(), seed=1)
    model.run(horizon=50.0)
    pickle.loads(pickle.dumps(model.net))  # compiled, cached and run

    gspn = build_cpu_gspn_net()
    PetriNetSimulator(gspn, seed=2).run(horizon=20.0)
    assert gspn._compiled is not None
    clone = pickle.loads(pickle.dumps(gspn))
    assert clone.compile().deltas == gspn.compile().deltas

    backend = GSPNBackend(gspn)
    backend.prepare()
    pickle.loads(pickle.dumps(backend))

    runner = SweepRunner(gspn, ["mean_tokens:Stand_By"], n_workers=2)
    assert runner._template_ships()
