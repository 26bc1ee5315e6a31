"""The ``sweep``, ``steady`` and ``query`` commands speak the service's spec.

One flag group names a model for all three commands, and the spec it
builds goes through :func:`repro.sweep.spec.canonical_model_spec` — so a
model named on the command line is the very template the service
fingerprints and solves: same fingerprint, bitwise the same rows.
"""

from __future__ import annotations

import csv
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import cli
from repro.experiments.cli import main
from repro.sweep.service import RequestError, parse_request, spec_fingerprint
from repro.sweep.spec import SPEC_FIELDS
from tests.sweep.service.fixture import ServiceFixture

SRC = Path(__file__).resolve().parents[3] / "src"

#: the grid axis each model family sweeps in these tests
_AXIS = {"mm1k": "arrive", "cpu-gspn": "AR", "cpu": "T"}


@st.composite
def model_flags(draw, small: bool = False):
    """``(flags, body, axis)``: a model flag set, the ``/v1/sweep`` model
    body naming the same model, and an axis name it sweeps.

    Flags are drawn independently and omitted flags stay out of the body,
    so defaults must agree too.  *small* keeps every chain a few hundred
    states at most (mm1k buffer <= 12, cpu-gspn buffer <= 8, stages <= 4,
    n_max <= 10).
    """
    kind = draw(st.sampled_from(
        ["gspn", "phase-type", "phase-type-batched", "renewal"]
    ))
    flags, body = [], {}

    def add(flag, key, value):
        flags.extend([flag, str(value)])
        body[key] = value

    if kind != "gspn" or draw(st.booleans()):
        add("--model", "kind", kind)
    if kind == "gspn":
        nets = ["mm1k", "cpu-gspn"] if small else ["mm1k", "cpu-gspn", "wsn-cluster"]
        net = draw(st.sampled_from(nets))
        if net != "cpu-gspn" or draw(st.booleans()):
            add("--net", "net", net)
        cap = {"mm1k": 12, "cpu-gspn": 8, "wsn-cluster": 3}[net]
        buffer = draw(st.none() | st.integers(1, cap))
        if buffer is not None:
            add("--buffer", "buffer", buffer)
        if net == "wsn-cluster" and draw(st.booleans()):
            add("--nodes", "nodes", draw(st.integers(1, 2)))
        if draw(st.booleans()):
            add("--max-markings", "max_markings", draw(st.integers(500, 10**6)))
        return flags, body, _AXIS.get(net, "arr0")
    # aliases of the same parameter: the last one given wins everywhere
    overrides = draw(st.lists(st.sampled_from([
        ("SR", 20.0), ("mu", 12.5), ("D", 0.05), ("PUT", 0.3),
        ("lambda", 2.0), ("AR", 0.5), ("T", 1.0),
    ]), max_size=3))
    for name, value in overrides:
        flags.extend(["--param", f"{name}={value}"])
    if overrides:
        body["params"] = dict(overrides)
    if kind != "renewal":
        if draw(st.booleans()):
            add("--stages", "stages", draw(st.integers(1, 4 if small else 64)))
        elif small:
            add("--stages", "stages", 2)
        n_max = draw(st.none() | st.integers(6, 10)) if small else None
        if n_max is not None:
            add("--n-max", "n_max", n_max)
        if draw(st.booleans()):
            flags.append("--batched")  # a no-op alias: not in the body
    return flags, body, _AXIS["cpu"]


class _Built(ValueError):
    """Raised in place of building a backend: the spec is all we need."""


def command_spec(argv):
    """The canonical spec the command behind *argv* builds its backend
    from, captured at ``build_backend`` (nothing is solved)."""
    seen = []

    def capture(spec):
        seen.append(spec)
        raise _Built("captured")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_backend", capture)
        assert main(argv) == 2
    (spec,) = seen
    return spec


def service_fingerprint(body, axis):
    return parse_request(
        {"op": "sweep", "model": body, "axes": [f"{axis}=0.5,1"]}
    ).fingerprint


class TestFingerprintParity:
    @given(model=model_flags())
    @settings(max_examples=120, deadline=None)
    def test_sweep_and_steady_specs_match_the_service(self, model):
        flags, body, axis = model
        expected = service_fingerprint(body, axis)
        sweep = command_spec(["sweep", *flags, "--rate", f"{axis}=0.5,1"])
        assert spec_fingerprint(sweep) == expected
        steady = command_spec(["steady", *flags])
        if body.get("kind", "gspn") == "gspn" and "net" not in body:
            # steady's default net is wsn-cluster, everyone else's cpu-gspn
            expected = service_fingerprint(
                {**body, "net": "wsn-cluster"}, "arr0"
            )
        assert spec_fingerprint(steady) == expected

    @given(model=model_flags())
    @settings(max_examples=120, deadline=None)
    def test_query_sends_the_same_spec(self, model):
        flags, body, axis = model
        args = cli.build_parser().parse_args([
            "query", "--connect", "127.0.0.1:9", "--op", "sweep", *flags,
            "--rate", f"{axis}=0.5,1",
        ])
        payload = cli._build_query_payload(args)
        assert payload["model"] == {"kind": "gspn", **body}
        assert parse_request(payload).fingerprint == service_fingerprint(
            body, axis
        )


@pytest.fixture(scope="module")
def service():
    with ServiceFixture(telemetry=False) as svc:
        yield svc


def read_csv_rows(path: Path, n_axes: int):
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row[n_axes:]] for row in rows]


class TestRowParity:
    @given(model=model_flags(small=True), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_cli_sweep_rows_equal_a_service_reply(self, service, model, n):
        flags, body, axis = model
        axes = [f"{axis}=0.3:1.5:{n}"]
        reply = service.request({"op": "sweep", "model": body, "axes": axes})
        assert reply["kind"] == "result", reply
        with tempfile.TemporaryDirectory() as out:
            assert main([
                "sweep", *flags, "--rate", axes[0], "--quiet",
                "--csv-dir", out,
            ]) == 0
            rows = read_csv_rows(Path(out) / "sweep.csv", n_axes=1)
        # bitwise: repr round-trips a float exactly
        assert [[repr(v) for v in row] for row in rows] == [
            [repr(float(v)) for v in row] for row in reply["rows"]
        ]


class TestQueryFlagErrorsBeforeConnecting:
    """Both used to reach the service (or die) without naming the flag."""

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--buffer", "3"], "--buffer does not apply to --model phase-type"),
            (["--param", "T=abc"], "--param 'T': cannot parse value 'abc'"),
        ],
    )
    def test_phase_type_flag_errors(self, monkeypatch, capsys, flags, needle):
        def no_connection(*args, **kwargs):
            raise AssertionError("query opened a connection")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        rc = main([
            "query", "--connect", "127.0.0.1:9", "--op", "steady",
            "--model", "phase-type", *flags,
        ])
        assert rc == 2
        assert needle in capsys.readouterr().err


class TestBadRequests:
    LINT = {"op": "lint", "net": "mm1k", "level": "deep"}

    def test_lint_max_markings_rejects_true(self):
        with pytest.raises(RequestError, match="max_markings must be an integer"):
            parse_request({**self.LINT, "max_markings": True})
        request = parse_request({**self.LINT, "max_markings": 10.0})
        assert request.lint_max_markings == 10

    def test_lint_max_markings_true_is_a_clean_error(self, service):
        reply = service.request({**self.LINT, "max_markings": True})
        assert reply["kind"] == "error"
        assert reply["code"] == "bad-request"
        assert "max_markings must be an integer" in reply["message"]


def test_every_spec_key_has_a_flag():
    args = cli.build_parser().parse_args(["steady"])
    assert all(hasattr(args, key) for key in SPEC_FIELDS if key != "kind")


@pytest.mark.parametrize("argv", [
    ["steady", "--net", "mm1k", "--buffer", "3"],
    ["sweep", "--model", "phase-type", "--stages", "2", "--rate", "T=0.5"],
])
def test_commands_do_not_import_the_service(argv):
    code = (
        "import contextlib, io, sys\n"
        "from repro.experiments.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "assert 'repro.sweep.service' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
