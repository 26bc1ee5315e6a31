"""The model-spec vocabulary: what names one sweep model, in one place.

A model spec is plain data — ``{"kind": "gspn", "net": "mm1k",
"buffer": 20}`` — and every front end speaks it: the service's
``sweep``/``steady`` requests carry it as ``model``, and the ``sweep``,
``steady`` and ``query`` commands build it from one shared flag group
(``--<key>`` per spec key; see the "Model spec" table in
``docs/service.md``).

:data:`SPEC_KEYS` says which keys each model kind takes, and both the
service's and the CLI's "does not apply" errors come from it.
:func:`canonical_model_spec` validates a spec and returns its canonical
form — defaults filled in, axis aliases resolved, numeric types pinned —
whose :func:`~repro.sweep.service.template_cache.spec_fingerprint` keys
the service's template cache.  :func:`build_backend` turns a canonical
spec into the (unprepared) backend it describes.

Importing this module does not import scipy; :func:`build_backend`
imports the backend it builds when it is called.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.params import CPUModelParams
from repro.sweep.backends import SweepBackend, make_backend, resolve_cpu_axis
from repro.sweep.nets import DEMO_NETS

__all__ = [
    "CPU_DEFAULT_METRICS",
    "MODEL_KINDS",
    "REQUEST_OPS",
    "RequestError",
    "SPEC_FIELDS",
    "SPEC_KEYS",
    "build_backend",
    "canonical_model_spec",
    "default_metrics",
    "optional_int",
]

#: the ops a service request may name
REQUEST_OPS = ("sweep", "steady", "lint", "ping", "stats")

#: model kinds a spec may name; ``phase-type-batched`` is a deprecated
#: spelling of ``phase-type`` and canonicalises to it
MODEL_KINDS = ("gspn", "phase-type", "phase-type-batched", "renewal")

#: the spec keys each (canonical) model kind takes
SPEC_KEYS: Dict[str, Tuple[str, ...]] = {
    "gspn": ("kind", "net", "buffer", "nodes", "max_markings"),
    "phase-type": ("kind", "params", "stages", "n_max"),
    "renewal": ("kind", "params"),
}

#: every spec key, each once, in table order
SPEC_FIELDS = tuple(dict.fromkeys(k for keys in SPEC_KEYS.values() for k in keys))

#: which net-size keys each demo net takes, and the constructor keyword
#: each maps onto
_NET_SIZE_KWARGS: Dict[str, Dict[str, str]] = {
    "mm1k": {"buffer": "K"},
    "cpu-gspn": {"buffer": "buffer_capacity"},
    "wsn-cluster": {"buffer": "buffer_capacity", "nodes": "n_nodes"},
    "deadlock": {},
}

#: default metric columns for the CPU-parameter backends
CPU_DEFAULT_METRICS = ("fraction:standby", "fraction:active", "power")

_DEFAULT_MAX_MARKINGS = 2_000_000
_DEFAULT_STAGES = 32


class RequestError(ValueError):
    """A malformed or unserviceable request (client error, HTTP 400)."""


def optional_int(value: Any, name: str, minimum: int = 1) -> Optional[int]:
    """*value* as an int ``>= minimum`` (``None`` passes through).

    Integral floats are accepted (JSON has one number type); booleans are
    not, although ``bool`` is an ``int``.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    if float(value) != int(value):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise RequestError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_keys(spec: Mapping[str, Any], given_kind: str, kind: str) -> None:
    """Reject keys no kind takes, then keys another kind takes."""
    allowed = SPEC_KEYS[kind]
    unknown = sorted(set(spec) - set(SPEC_FIELDS))
    if unknown:
        raise RequestError(
            f"unknown model spec key(s) {unknown} for kind {given_kind!r} "
            f"(allowed: {sorted(allowed)})"
        )
    for key in spec:
        if key not in allowed:
            owners = "/".join(k for k, keys in SPEC_KEYS.items() if key in keys)
            raise RequestError(
                f"model.{key} does not apply to model.kind {given_kind} "
                f"(it is for model.kind {owners})"
            )


def canonical_model_spec(spec: Any) -> Dict[str, Any]:
    """Validate a model spec and return its canonical form.

    Canonicalisation is what makes fingerprint collisions impossible by
    construction: every size-relevant field is present (its
    default filled in), axis aliases are resolved to one spelling, and
    numeric types are pinned (``int`` knobs stay ints, rates become
    floats) — so two specs fingerprint equal iff they configure the same
    prepared template.
    """
    if not isinstance(spec, Mapping):
        raise RequestError(
            f"model spec must be a mapping, got {type(spec).__name__}"
        )
    given_kind = spec.get("kind", "gspn")
    if given_kind not in MODEL_KINDS:
        raise RequestError(
            f"unknown model kind {given_kind!r} (have: {list(MODEL_KINDS)})"
        )
    kind = "phase-type" if given_kind == "phase-type-batched" else given_kind
    _check_keys(spec, given_kind, kind)
    canonical: Dict[str, Any] = {"kind": kind}
    if kind == "gspn":
        net = spec.get("net", "cpu-gspn")
        if net not in DEMO_NETS:
            raise RequestError(
                f"unknown net {net!r} (have: {sorted(DEMO_NETS)})"
            )
        for knob in ("buffer", "nodes"):
            if spec.get(knob) is not None and knob not in _NET_SIZE_KWARGS[net]:
                raise RequestError(
                    f"model.{knob} does not apply to model.net {net}"
                )
        canonical.update(
            net=net,
            buffer=optional_int(spec.get("buffer"), "model.buffer"),
            nodes=optional_int(spec.get("nodes"), "model.nodes"),
            max_markings=(
                optional_int(spec.get("max_markings"), "model.max_markings")
                or _DEFAULT_MAX_MARKINGS
            ),
        )
        return canonical
    # CPU-parameter families: phase-type runs its exact level recursion,
    # renewal is closed form
    params_in = spec.get("params") or {}
    if not isinstance(params_in, Mapping):
        raise RequestError(
            f"model.params must be a mapping, got {type(params_in).__name__}"
        )
    params: Dict[str, float] = {}
    for name, value in params_in.items():
        try:
            field = resolve_cpu_axis(str(name))
        except KeyError as exc:
            raise RequestError(exc.args[0]) from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"model.params[{name!r}] must be a number, got {value!r}"
            )
        params[field] = float(value)
    canonical["params"] = dict(sorted(params.items()))
    if kind == "phase-type":
        canonical["stages"] = (
            optional_int(spec.get("stages"), "model.stages") or _DEFAULT_STAGES
        )
        canonical["n_max"] = optional_int(spec.get("n_max"), "model.n_max")
    return canonical


def build_backend(canonical: Mapping[str, Any]) -> SweepBackend:
    """Instantiate the (unprepared) backend a canonical spec describes."""
    kind = canonical["kind"]
    if kind == "gspn":
        from repro.petri.analysis import ReachabilityOptions

        factory, _ = DEMO_NETS[canonical["net"]]
        mapping = _NET_SIZE_KWARGS[canonical["net"]]
        size_kwargs = {
            mapping[knob]: canonical[knob]
            for knob in ("buffer", "nodes")
            if canonical[knob] is not None
        }
        return make_backend(
            "gspn",
            net=factory(**size_kwargs),
            options=ReachabilityOptions(max_markings=canonical["max_markings"]),
        )
    params = replace(CPUModelParams.paper_defaults(), **canonical["params"])
    if kind == "renewal":
        return make_backend("renewal", params=params)
    return make_backend(
        kind, params=params, stages=canonical["stages"], n_max=canonical["n_max"]
    )


def default_metrics(canonical: Mapping[str, Any]) -> List[str]:
    """The spec's default metric columns."""
    if canonical["kind"] == "gspn":
        return list(DEMO_NETS[canonical["net"]][1])
    return list(CPU_DEFAULT_METRICS)
