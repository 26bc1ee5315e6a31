"""Command-line interface for the experiment harness.

Examples::

    repro-experiments list
    repro-experiments lint --net cpu-gspn
    repro-experiments run fig4
    repro-experiments run table4 --full --csv-dir results/
    repro-experiments run all --csv-dir results/
    python -m repro run fig5

Fast mode (default) finishes in seconds; ``--full`` reproduces the paper's
0.1-step threshold grid with long runs (minutes).

Each command imports its own machinery when it runs.  At import the module
loads only the paper's experiments and the model-spec vocabulary
(:mod:`repro.sweep.spec`) the parser offers as choices, so ``list`` and
``run`` never import scipy.  ``sweep``, ``steady`` and ``query`` share one
group of model flags, which :func:`_model_spec` turns into the service's
model spec.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.experiments.paper_experiments import EXPERIMENTS, ExperimentConfig
from repro.sweep import DEMO_NETS
from repro.sweep.spec import (
    MODEL_KINDS,
    REQUEST_OPS,
    SPEC_FIELDS,
    RequestError,
    build_backend,
    canonical_model_spec,
    default_metrics,
    optional_int,
)
from repro.verify import LINT_LEVELS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Energy Modeling of "
            "Processors in Wireless Sensor Networks based on Petri Nets' "
            "(Shareef & Zhu, 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available experiments")
    list_p.set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    run_p.add_argument(
        "--full",
        action="store_true",
        help="full-fidelity grid and horizons (slow; paper-quality)",
    )
    run_p.add_argument(
        "--seed", type=int, default=20080901, help="master random seed"
    )
    run_p.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write <experiment>.csv files into this directory",
    )
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep",
        help="batched parameter sweep over a model backend",
        description=(
            "Sweep model parameters over a grid and solve each point "
            "analytically through a batched model backend.  GSPN example: "
            "repro-experiments sweep --net cpu-gspn --rate AR=0.2:2.0:10 "
            "--rate PDT=2,3.33 --metric mean_tokens:Stand_By.  "
            "Deterministic-delay (Figure 4/5-style) example: "
            "repro-experiments sweep --model phase-type --rate T=0.1:2.0:20 "
            "--metric fraction:standby --metric power --metric energy@10"
        ),
    )
    _add_model_flags(sweep_p)
    sweep_p.add_argument(
        "--rate",
        action="append",
        required=True,
        metavar="NAME=VALUES",
        help=(
            "axis spec, repeatable: 'AR=0.1:2.0:10' (linspace), "
            "'AR=0.1:10:5:log' (geomspace), 'AR=0.5,1,2', or 'AR=1.5'; "
            "CPU-model axes accept AR/SR/T/D aliases"
        ),
    )
    sweep_p.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "metric column, repeatable.  gspn: mean_tokens:<place>, "
            "probability_positive:<place>, throughput:<transition>; "
            "phase-type/renewal: fraction:<state>, power, mean_jobs; "
            "transient (phase-type): energy@<t>, fraction:<state>@<t>, "
            "accumulated_reward:<reward>@<t>, time_to_threshold:<frac> "
            "(default: per-model defaults)"
        ),
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fan points out over this many worker processes (one machine)",
    )
    sweep_p.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "shard the grid over TCP-connected workers (coordinator/worker "
            "fan-out with requeue-on-death and checkpointing; see "
            "docs/distributed.md)"
        ),
    )
    sweep_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "local worker processes to launch under --distributed "
            "(default 2; 0 waits for external 'repro-experiments worker "
            "--connect' processes)"
        ),
    )
    sweep_p.add_argument(
        "--bind",
        default=None,
        metavar="HOST:PORT",
        help=(
            "coordinator bind address under --distributed (default "
            "127.0.0.1:0; bind a routable address to accept workers from "
            "other machines — trusted networks only)"
        ),
    )
    sweep_p.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "journal completed rows to FILE under --distributed; an "
            "interrupted sweep re-run with the same grid resumes from it"
        ),
    )
    sweep_p.add_argument(
        "--no-preflight",
        action="store_true",
        help=(
            "skip the verification preflight (chain classification, grid "
            "vetting) and solve a flagged configuration anyway"
        ),
    )
    sweep_p.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write a sweep.csv into this directory",
    )
    _add_telemetry_flags(sweep_p)
    sweep_p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress line on stderr",
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    lint_p = sub.add_parser(
        "lint",
        help="verify a net structurally before paying for its state space",
        description=(
            "Run the structural verification suite on a demo net and print "
            "a diagnostic report with stable PN0xx/CH0xx codes (see "
            "docs/verification.md).  The default 'standard' level proves "
            "boundedness (P-invariants, capacities) and deadlock freedom "
            "(Commoner's siphon/trap condition) with zero state-space "
            "exploration; 'deep' additionally explores the reachability "
            "graph and classifies the chain.  Example: repro-experiments "
            "lint --net cpu-gspn --level standard --strict"
        ),
    )
    lint_p.add_argument(
        "--net",
        choices=sorted(DEMO_NETS),
        default="cpu-gspn",
        help="demo net to lint (default: the exponentialised Figure 3 CPU)",
    )
    lint_p.add_argument(
        "--level",
        choices=list(LINT_LEVELS),
        default="standard",
        help=(
            "quick: structure+bounds+conflicts; standard: +siphon/trap "
            "deadlock check (default; no exploration); deep: +bounded "
            "state-space exploration and chain classification"
        ),
    )
    lint_p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings (errors always exit 2)",
    )
    lint_p.add_argument(
        "--max-markings",
        type=int,
        default=None,
        help="exploration cap of --level deep (default 50000)",
    )
    lint_p.set_defaults(func=_cmd_lint)

    steady_p = sub.add_parser(
        "steady",
        help="solve one model's steady state once (solver showcase)",
        description=(
            "Build one model at its base parameters, solve the stationary "
            "distribution (gspn nets by dense LU or, past 500 states, "
            "GMRES; phase-type with its exact level recursion), and report "
            "size, solver, timing and the default metrics.  Scale the "
            "state space with --buffer/--nodes (gspn nets) or --n-max "
            "(phase-type), e.g.: repro-experiments steady --net "
            "wsn-cluster --buffer 30"
        ),
    )
    _add_model_flags(steady_p)
    _add_telemetry_flags(steady_p)
    steady_p.set_defaults(func=_cmd_steady)

    worker_p = sub.add_parser(
        "worker",
        help="join a distributed sweep as a worker",
        description=(
            "Connect to a sweep coordinator (a 'sweep --distributed' "
            "process, possibly on another machine), receive the model "
            "template, and solve chunks of grid points until the sweep "
            "finishes.  Example: repro-experiments worker --connect "
            "10.0.0.5:7777"
        ),
    )
    worker_p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (printed by 'sweep --distributed')",
    )
    _add_telemetry_flags(worker_p)
    worker_p.set_defaults(func=_cmd_worker)

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on sweep service daemon",
        description=(
            "Start a persistent solver daemon that answers sweep/steady/"
            "lint requests over the distributed pickle framing and an "
            "HTTP/JSON front end, caching prepared model templates in an "
            "LRU so repeat models skip the expensive exploration.  Drain "
            "gracefully with SIGTERM.  See docs/service.md."
        ),
    )
    serve_p.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="pickle-channel listen address (default 127.0.0.1:0 — "
             "an ephemeral port, printed on startup)",
    )
    serve_p.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="HTTP listen address (default: same host, ephemeral port)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="fork N persistent solver shards (default 0: solve inline)",
    )
    serve_p.add_argument(
        "--cache-capacity",
        type=int,
        default=8,
        metavar="K",
        help="prepared-template LRU size (default 8 models)",
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="concurrent requests being solved (default: --workers, or 4)",
    )
    serve_p.add_argument(
        "--max-pending",
        type=int,
        default=16,
        metavar="N",
        help="requests allowed to queue before 'busy' replies (default 16)",
    )
    serve_p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="times one grid point may kill a worker and be retried "
        "before it is recorded as a NaN row (default 2)",
    )
    serve_p.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="FILE",
        help="append one JSON line per request (and lifecycle event) to FILE",
    )
    serve_p.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help=(
            "inline-mode micro-batching window: hold the first request "
            "for a template this long so concurrent same-template "
            "requests coalesce into one stacked solve (adds up to MS "
            "latency per request; 0 still coalesces whatever queued "
            "during the previous solve; default 2.0)"
        ),
    )
    serve_p.add_argument(
        "--solve-delay",
        type=float,
        default=None,
        help=argparse.SUPPRESS,  # test hook: per-point sleep to force queueing
    )
    _add_telemetry_flags(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    query_p = sub.add_parser(
        "query",
        help="send one request to a running sweep service",
        description=(
            "Client for 'repro-experiments serve': send one sweep/steady/"
            "lint/ping/stats request over the pickle channel (default) or "
            "HTTP (--http) and render the reply.  Examples: "
            "repro-experiments query --connect 127.0.0.1:7788 --op sweep "
            "--net mm1k --rate arrive=0.2:1.8:8 ; "
            "repro-experiments query --connect 127.0.0.1:8080 --http "
            "--op stats"
        ),
    )
    query_p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="service address (printed by 'serve' on startup)",
    )
    query_p.add_argument(
        "--http",
        action="store_true",
        help="--connect is the service's HTTP address; speak JSON",
    )
    query_p.add_argument(
        "--op",
        choices=list(REQUEST_OPS),
        default="steady",
        help="request kind (default steady)",
    )
    _add_model_flags(query_p)
    query_p.add_argument(
        "--rate",
        action="append",
        default=None,
        metavar="NAME=VALUES",
        help="sweep axis (repeatable, as in 'sweep'): NAME=v1,v2 or "
        "NAME=start:stop:count",
    )
    query_p.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SPEC",
        help="metric column (repeatable; default: the model's standard set)",
    )
    query_p.add_argument(
        "--level",
        choices=list(LINT_LEVELS),
        default="standard",
        help="lint level for --op lint (default standard)",
    )
    query_p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="give up on the service after this long (default 120)",
    )
    query_p.set_defaults(func=_cmd_query)
    return parser


def _parse_hostport(spec: str, flag: str) -> tuple:
    """Split ``HOST:PORT``, diagnosing the exact malformed piece."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"{flag} must look like HOST:PORT, got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"{flag}: port {port_text!r} in {spec!r} must be an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{flag}: port must be in [0, 65535], got {port}")
    return host, port


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """The model-spec flags shared by ``sweep``, ``steady`` and ``query``.

    Each flag sets the spec key of its name (``--model`` sets ``kind``,
    ``--param`` sets ``params``); which keys apply to which model is
    :data:`repro.sweep.spec.SPEC_KEYS`'s to say, not the parser's.
    """
    group = parser.add_argument_group("model spec (see docs/service.md)")
    group.add_argument(
        "--model",
        choices=list(MODEL_KINDS),
        default=None,
        help=(
            "model family: 'gspn' solves a demo --net; 'phase-type' "
            "stage-expands the deterministic-delay CPU model "
            "('phase-type-batched' is an old spelling of it); 'renewal' "
            "is its exact closed form (default: gspn)"
        ),
    )
    group.add_argument(
        "--net",
        choices=sorted(DEMO_NETS),
        default=None,
        help=(
            "demo net of --model gspn, and the net query --op lint lints "
            "(default: cpu-gspn, the exponentialised Figure 3 CPU; "
            "steady: wsn-cluster)"
        ),
    )
    group.add_argument(
        "--buffer",
        type=int,
        default=None,
        help="buffer/queue capacity of the demo net (gspn; grows the chain)",
    )
    group.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="sensor-node count (wsn-cluster only; grows the chain fast)",
    )
    group.add_argument(
        "--max-markings",
        type=int,
        default=None,
        help="reachability exploration cap (gspn; default 2000000)",
    )
    group.add_argument(
        "--param",
        dest="params",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help=(
            "base CPU parameter override (phase-type/renewal), repeatable "
            "(e.g. --param SR=20 --param D=0.05)"
        ),
    )
    group.add_argument(
        "--stages",
        type=int,
        default=None,
        help="Erlang stages per deterministic delay (phase-type; default 32)",
    )
    group.add_argument(
        "--n-max",
        type=int,
        default=None,
        help=(
            "queue truncation level (phase-type; default: sized from the "
            "base parameters)"
        ),
    )
    # phase-type always batches; --batched is an accepted no-op
    group.add_argument("--batched", action="store_true", help=argparse.SUPPRESS)


def _model_spec(args: argparse.Namespace, default_net: Optional[str] = None) -> dict:
    """The model spec the flag group names: ``kind`` plus every flag given.

    ``--param NAME=VALUE`` strings become numbers here; everything else
    is left to :func:`_canonical_spec`.  *default_net* names the net of
    a gspn spec that gives none.
    """
    spec: dict = {"kind": args.model or "gspn"}
    for key in SPEC_FIELDS:
        if key != "kind" and getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    if "params" in spec:
        spec["params"] = _parse_params(spec["params"])
    if args.batched and spec["kind"] not in ("phase-type", "phase-type-batched"):
        raise ValueError(
            f"--batched does not apply to --model {spec['kind']} "
            "(it is for --model phase-type)"
        )
    if default_net is not None and spec["kind"] == "gspn":
        spec.setdefault("net", default_net)
    return spec


def _parse_params(specs: List[str]) -> dict:
    """``--param NAME=VALUE`` strings as a name -> float mapping."""
    params = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep or not name.strip() or not value.strip():
            raise ValueError(f"--param must look like NAME=VALUE, got {spec!r}")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"--param {name.strip()!r}: cannot parse value {value!r}"
            ) from None
    return params


#: spec keys whose flag is not ``--<key>`` with dashes for underscores
_KEY_FLAGS = {"kind": "--model", "params": "--param"}


def _flag(key: str) -> str:
    """The model flag that sets spec key *key*."""
    return _KEY_FLAGS.get(key, "--" + key.replace("_", "-"))


def _canonical_spec(spec: dict) -> dict:
    """:func:`~repro.sweep.spec.canonical_model_spec`, its errors naming
    the flags (``model.n_max`` reads ``--n-max``)."""
    try:
        return canonical_model_spec(spec)
    except RequestError as exc:
        raise ValueError(
            re.sub(
                r"\bmodel\.(\w+)",
                lambda m: _flag(m[1]),
                str(exc),
            )
        ) from None


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace``/``--profile`` shared by ``sweep``, ``steady``, ``worker``."""
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "record a structured trace of the run and write it to FILE as "
            "JSON Lines (see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a phase breakdown (wall-clock per instrumented phase, "
            "solver iteration counters) to stderr when the command finishes"
        ),
    )


def _telemetry_trace(args: argparse.Namespace, name: str) -> Optional[obs.Trace]:
    """A fresh trace when ``--trace``/``--profile`` asks for one."""
    if args.trace is not None or args.profile:
        return obs.Trace(name)
    return None


def _finish_telemetry(args: argparse.Namespace, trace: Optional[obs.Trace]) -> None:
    """Write the trace file / print the profile, as requested."""
    if trace is None:
        return
    if args.trace is not None:
        trace.write_jsonl(str(args.trace))
        print(f"[wrote trace {args.trace}]", file=sys.stderr)
    if args.profile:
        print(obs.render_profile(trace, title=f"{trace.name} profile"),
              file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:8s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(fast=not args.full, seed=args.seed)
    names: List[str] = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for name in names:
        t0 = time.perf_counter()
        result = EXPERIMENTS[name](config)
        elapsed = time.perf_counter() - t0
        print(result.render())
        print(f"\n[{name} finished in {elapsed:.2f} s]")
        if args.csv_dir is not None:
            path = result.write_csv(args.csv_dir)
            print(f"[wrote {path}]")
        if len(names) > 1:
            print("\n" + "#" * 78 + "\n")
    return 0


def _check_distributed_flags(args: argparse.Namespace) -> None:
    """Reject fan-out flag combinations that would silently do nothing."""
    if not args.distributed:
        for flag, value in (
            ("--shards", args.shards),
            ("--bind", args.bind),
            ("--checkpoint", args.checkpoint),
        ):
            if value is not None:
                raise ValueError(f"{flag} requires --distributed")
        return
    if args.jobs is not None:
        raise ValueError(
            "--jobs does not apply with --distributed (use --shards for "
            "local workers, or 'repro-experiments worker' for remote ones)"
        )
    if args.shards is not None and args.shards < 0:
        raise ValueError(f"--shards must be >= 0, got {args.shards}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.markov.ctmc import ConvergenceError
    from repro.sweep import SweepGrid, SweepRunner

    # keep the distributed package (asyncio/multiprocessing machinery) off
    # the startup path of plain sweeps: its error type joins the handler
    # only when --distributed is in play
    error_types: tuple = (KeyError, ValueError, ConvergenceError)
    if args.distributed:
        from repro.sweep.distributed import DistributedSweepError

        error_types = error_types + (
            DistributedSweepError,  # e.g. every worker died mid-sweep
            OSError,  # e.g. --bind address already in use
        )
    trace = _telemetry_trace(args, "sweep")
    show_progress = not args.quiet and obs.stream_is_tty(sys.stderr)
    if trace is None and show_progress:
        # the progress line is driven by the sweep.rows.completed counter,
        # so it needs a live trace even without --trace/--profile
        trace = obs.Trace("sweep")
    obs_token = obs.activate(trace) if trace is not None else None
    progress: Optional[obs.ProgressLine] = None
    try:
        spec = _canonical_spec(_model_spec(args))
        _check_distributed_flags(args)
        grid = SweepGrid.from_specs(args.rate)
        model = build_backend(spec)
        metrics: List[str] = args.metric or default_metrics(spec)
        title = f"{spec.get('net', spec['kind'])} sweep"
        if trace is not None and show_progress:
            progress = obs.ProgressLine(
                len(grid.points()), sys.stderr, enabled=True
            )
            trace.on_counter = progress.on_counter
        if args.distributed:
            from repro.sweep.distributed import DistributedSweepRunner

            host, port = _parse_hostport(
                args.bind if args.bind is not None else "127.0.0.1:0",
                "--bind",
            )
            shards = args.shards if args.shards is not None else 2
            runner: SweepRunner = DistributedSweepRunner(
                model,
                metrics,
                n_shards=shards,
                host=host,
                port=port,
                checkpoint=args.checkpoint,
                preflight=not args.no_preflight,
            )
            bound_host, bound_port = runner.address
            if shards == 0:
                print(
                    f"[coordinator listening on {bound_host}:{bound_port} — "
                    f"start workers with: repro-experiments worker "
                    f"--connect {bound_host}:{bound_port}]"
                )
        else:
            runner = SweepRunner(
                model,
                metrics,
                n_workers=args.jobs,
                preflight=not args.no_preflight,
            )
        t0 = time.perf_counter()
        with obs.span("cli.sweep", model=spec["kind"]):
            result = runner.run(grid)
        elapsed = time.perf_counter() - t0
    except error_types as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    finally:
        if progress is not None:
            progress.finish()
        if obs_token is not None:
            obs.deactivate(obs_token)
        _finish_telemetry(args, trace)
    print(result.render(title=f"{title} ({len(result)} points)"))
    fanout = (
        f", {runner.describe_fanout()}" if args.distributed else ""  # type: ignore[attr-defined]
    )
    print(
        f"\n[{len(result)} points in {elapsed:.3f} s — "
        f"{runner.model.describe()}{fanout}]"
    )
    if result.errors:
        print(
            f"[{result.n_failed} point(s) failed and carry NaN rows — "
            "see the table footer]",
            file=sys.stderr,
        )
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        path = result.write_csv(args.csv_dir)
        print(f"[wrote {path}]")
    return 0


def _cmd_steady(args: argparse.Namespace) -> int:
    from repro.markov.ctmc import ConvergenceError

    trace = _telemetry_trace(args, "steady")
    obs_token = obs.activate(trace) if trace is not None else None
    try:
        spec = _canonical_spec(_model_spec(args, default_net="wsn-cluster"))
        backend = build_backend(spec)
        metrics = default_metrics(spec)
        title = f"{spec.get('net', spec['kind'])} steady state"
        with obs.span("cli.steady", model=spec["kind"]):
            with obs.span("steady.prepare"):
                backend.prepare()
            n = getattr(backend, "n_states", None)  # renewal: closed form
            t0 = time.perf_counter()
            with obs.span("steady.solve", n=n):
                solution = backend.solve({})
            with obs.span("steady.metrics"):
                values = [(m, backend.evaluate(solution, m)) for m in metrics]
            elapsed = time.perf_counter() - t0
    except (KeyError, ValueError, ConvergenceError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    finally:
        if obs_token is not None:
            obs.deactivate(obs_token)
        _finish_telemetry(args, trace)
    print(title)
    print("-" * len(title))
    for name, value in values:
        print(f"{name:30s} {value:.6g}")
    solved = (
        "closed form evaluated" if n is None
        else f"{n} states solved with {backend.steady_method}"
    )
    print(f"\n[{solved} in {elapsed:.3f} s — {backend.describe()}]")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.verify import lint_net

    try:
        factory, _ = DEMO_NETS[args.net]
        net = factory()
        kwargs = {}
        max_markings = optional_int(args.max_markings, "--max-markings")
        if max_markings is not None:
            if args.level != "deep":
                raise ValueError(
                    "--max-markings applies only to --level deep "
                    "(the other levels never explore the state space)"
                )
            kwargs["max_markings"] = max_markings
        report = lint_net(net, level=args.level, **kwargs)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    print(report.render(title=f"lint report: {args.net} ({args.level})"))
    if report.errors:
        return 2
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.sweep.distributed import ProtocolError, worker_main

    # the worker's own trace: run_worker installs it for the connection,
    # records every solve into it, and *also* ships segments to the
    # coordinator when the template asks for telemetry
    trace = _telemetry_trace(args, "worker")
    try:
        host, port = _parse_hostport(args.connect, "--connect")
        solved = worker_main(host, port, trace=trace)
    except (ValueError, OSError, EOFError, ProtocolError) as exc:
        # OSError covers refused/reset connections; EOFError covers
        # asyncio.IncompleteReadError when the coordinator dies (or is
        # Ctrl-C'd) mid-conversation — a routine event, not a traceback
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    finally:
        _finish_telemetry(args, trace)
    print(f"[worker solved {solved} point(s)]")
    return 0


async def _serve_forever(service) -> None:
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, service.request_drain)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    async with service:
        await service.serve_until_drained()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.sweep.service import SweepService

    # activate the trace *before* asyncio.run so every handler task on
    # the loop (and the drain path) sees it via the ambient contextvar
    trace = _telemetry_trace(args, "service")
    obs_token = obs.activate(trace) if trace is not None else None
    try:
        try:
            host, port = _parse_hostport(args.bind, "--bind")
            http_host: Optional[str] = None
            http_port = 0
            if args.http is not None:
                http_host, http_port = _parse_hostport(args.http, "--http")
            service = SweepService(
                host,
                port,
                http_host=http_host,
                http_port=http_port,
                n_workers=args.workers,
                cache_capacity=args.cache_capacity,
                max_inflight=args.max_inflight,
                max_pending=args.max_pending,
                max_retries=args.max_retries,
                journal=str(args.journal) if args.journal else None,
                solve_delay=args.solve_delay,
                batch_window_ms=args.batch_window_ms,
            )
        except (ValueError, OSError) as exc:
            msg = exc.args[0] if exc.args else exc
            print(f"error: {msg}", file=sys.stderr)
            return 2
        h, p = service.address
        hh, hp = service.http_address
        print(
            f"[service listening on {h}:{p} (pickle) and "
            f"http://{hh}:{hp} — drain with SIGTERM]",
            flush=True,
        )
        try:
            asyncio.run(_serve_forever(service))
        except KeyboardInterrupt:  # pragma: no cover - signal-handler race
            pass
    finally:
        if obs_token is not None:
            obs.deactivate(obs_token)
        _finish_telemetry(args, trace)
    print(f"[service drained after {service.completed} request(s)]")
    return 0


#: the model flags (by spec key) each op without a model spec reads
_OP_MODEL_KEYS = {"lint": ("net", "max_markings"), "ping": (), "stats": ()}


def _build_query_payload(args: argparse.Namespace) -> dict:
    if args.op in _OP_MODEL_KEYS:
        for key in SPEC_FIELDS:
            value = getattr(args, "model" if key == "kind" else key)
            if value is not None and key not in _OP_MODEL_KEYS[args.op]:
                raise ValueError(f"{_flag(key)} does not apply to --op {args.op}")
        if args.batched:
            raise ValueError(f"--batched does not apply to --op {args.op}")
    if args.op in ("ping", "stats"):
        return {"op": args.op}
    if args.op == "lint":
        payload: dict = {"op": "lint", "net": args.net or "cpu-gspn"}
        if args.level != "standard":
            payload["level"] = args.level
        if args.max_markings is not None:
            payload["max_markings"] = args.max_markings
        return payload
    model = _model_spec(args)
    _canonical_spec(model)  # a flag error exits 2 before any connection
    payload = {"op": args.op, "model": model}
    if args.op == "sweep":
        if not args.rate:
            raise ValueError("--op sweep needs at least one --rate")
        payload["axes"] = list(args.rate)
    elif args.rate:
        raise ValueError("--rate applies only to --op sweep")
    if args.metric:
        payload["metrics"] = list(args.metric)
    return payload


def _query_http(args: argparse.Namespace, payload: dict) -> dict:
    import json
    import urllib.error
    import urllib.request

    host, port = _parse_hostport(args.connect, "--connect")
    base = f"http://{host}:{port}"
    if args.op in ("ping", "stats"):
        url = base + ("/healthz" if args.op == "ping" else "/stats")
        request = urllib.request.Request(url)
    else:
        body = {k: v for k, v in payload.items() if k != "op"}
        request = urllib.request.Request(
            f"{base}/v1/{args.op}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as resp:
            reply = json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        try:
            detail = json.loads(detail).get("error", detail)
        except ValueError:
            pass
        raise ValueError(f"HTTP {exc.code}: {detail}") from exc
    if args.op == "ping":
        return {"kind": "result", "op": "ping", **reply}
    if args.op == "stats":
        return {"kind": "result", "op": "stats", **reply}
    return reply


def _cmd_query(args: argparse.Namespace) -> int:
    import json
    import socket as socket_module

    from repro.sweep.results import PointFailure, SweepResult
    from repro.sweep.service import request_over_socket

    try:
        payload = _build_query_payload(args)
        if args.http:
            reply = _query_http(args, payload)
        else:
            host, port = _parse_hostport(args.connect, "--connect")
            reply = request_over_socket(
                host, port, payload, timeout=args.timeout
            )
    except (ValueError, ConnectionError, OSError, socket_module.timeout) as exc:
        msg = str(exc) or type(exc).__name__
        print(f"error: {msg}", file=sys.stderr)
        return 2
    kind = reply.get("kind")
    if kind == "busy":
        state = "draining" if reply.get("draining") else "busy"
        print(f"error: service {state}: {reply.get('message')}", file=sys.stderr)
        return 2
    if kind == "error":
        print(
            f"error [{reply.get('code')}]: {reply.get('message')}",
            file=sys.stderr,
        )
        return 2
    if args.op == "sweep":
        rows = {
            i: [float("nan") if v is None else float(v) for v in row]
            for i, row in enumerate(reply["rows"])
        }
        errors = {
            e["index"]: PointFailure.from_dict(e)
            for e in reply.get("errors", ())
        }
        result = SweepResult.assemble(
            reply["axis_names"],
            reply["metric_names"],
            reply["points"],
            rows,
            errors=errors,
        )
        print(result.render(title=f"service sweep ({len(result)} points)"))
    elif args.op == "steady":
        print("service steady state")
        print("-" * len("service steady state"))
        for name, value in reply["values"].items():
            shown = float("nan") if value is None else value
            print(f"{name:30s} {shown:.6g}")
        for e in reply.get("errors", ()):
            print(f"  [{e['stage']}] {e['error_type']}: {e['message']}")
    elif args.op == "lint":
        status = "ok" in reply and reply["ok"]
        print(f"lint {reply.get('net')} ({reply.get('level')}): "
              f"{'ok' if status else 'FINDINGS'}")
        for fact in reply.get("facts", ()):
            print(f"proved  {fact}")
        for d in reply.get("diagnostics", ()):
            hint = f"  [{d['fix_hint']}]" if d.get("fix_hint") else ""
            print(f"{d['code']} {d['severity']:7s} {d['subject']}: "
                  f"{d['message']}{hint}")
        if not status:
            return 2
    else:
        print(json.dumps(reply, indent=2, default=str))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (console script and ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
