"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``      print Table I and Table II reproductions
``magic``       print the Fig. 13 factory comparison
``inventory``   print hardware inventories for a machine configuration
``threshold``   run a quick threshold sweep for one scheme, or for a whole
                program with ``--program`` (``--correlated`` sweeps the
                joint merged-window estimate)
``memory``      run one logical-memory Monte-Carlo point
``compare``     program-level compact-vs-natural architecture comparison;
                ``--correlated`` adds merged-patch joint decoding of the
                lattice-surgery pairs and an independent-vs-joint report
``lint``        static analysis of the preset matrix: symbolic GF(2)
                determinism proofs of every lowered circuit shape,
                schedule dataflow checks and decoder-graph validation
                (``--json`` for machine-readable output; exit code 1 on
                any error-severity finding); ``--ledger`` adds durable
                run-ledger consistency checks (a file, or a service
                directory to lint every ledger in it)
``metrics``     render a metrics snapshot written by ``--obs-dir`` (human
                text or ``--prometheus`` exposition), or diff two
                snapshots with ``--diff``
``trace``       summarize a span trace written by ``--obs-dir``;
                ``--chrome`` exports Chrome ``trace_event`` JSON for a
                flamegraph view in chrome://tracing or Perfetto
``serve``       run the long-lived campaign service: persistent
                supervised worker fleet + shared caches serving queued
                jobs over HTTP, with admission control, a circuit
                breaker, crash-safe restart recovery, and graceful
                drain (exit 130) on SIGTERM
``submit``      submit a JSON campaign spec to a running service
``status``      show one service job's record
``wait``        block until a service job reaches a terminal state

The campaign commands (``threshold``/``memory``/``compare``) accept
``--ledger`` for durable, checkpointed execution: per-block results are
appended to a JSONL run ledger, ``--resume`` continues an interrupted
campaign bit-identically, ``--target-ci-width`` stops once the Wilson
interval is tight enough, and ``--chaos`` injects deterministic faults
for chaos testing.  A campaign interrupted by SIGINT/SIGTERM checkpoints
and exits 130.  They also accept ``--obs-dir`` to arm the observability
registry + tracer for the run and dump ``metrics.json`` / ``trace.jsonl``
(see ``metrics`` and ``trace`` above); instrumentation never changes
results.  That snapshot is where decode-tier totals live: the
``repro_decode_*`` counters, rendered by ``repro metrics``.

Every subcommand exits non-zero when a gate it checks fails (a decode
call whose tiers do not sum to its unique syndromes, quarantined blocks
of a durable run, lint errors, failed certification).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

#: Mirrors ``repro.threshold.SCHEMES`` so the parser can reject unknown
#: schemes without importing the threshold stack at startup (test_cli
#: pins the equality).
_SCHEME_CHOICES = (
    "baseline",
    "natural_all_at_once",
    "natural_interleaved",
    "compact_all_at_once",
    "compact_interleaved",
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _odd_distance(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError(
            f"code distance must be an odd integer >= 3, got {value}"
        )
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a probability in (0, 1), got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _fault_spec(text: str):
    from repro.durable import parse_fault_spec

    try:
        return parse_fault_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The Monte-Carlo engine knobs shared by every sampling command."""
    parser.add_argument("--decoder", choices=("unionfind", "mwpm"),
                        default="unionfind")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for the Monte-Carlo engine")
    parser.add_argument("--backend", choices=("packed", "reference"),
                        default="packed",
                        help="sampling backend: compiled symptom table (packed)"
                             " or per-instruction bool-array (reference)")


def _add_durable_args(parser: argparse.ArgumentParser) -> None:
    """Durable-execution knobs shared by the campaign commands."""
    durable = parser.add_argument_group(
        "durability",
        "checkpointed, resumable execution (see EXPERIMENTS.md, "
        "'Durability & determinism contract')",
    )
    durable.add_argument("--ledger", default=None, metavar="PATH",
                         help="checkpoint per-block results to this JSONL run "
                              "ledger (enables durable execution)")
    durable.add_argument("--resume", action="store_true",
                         help="continue an interrupted campaign from the "
                              "ledger's last durable block (required when the "
                              "ledger file already exists)")
    durable.add_argument("--target-ci-width", type=_positive_float, default=None,
                         metavar="W",
                         help="stop each unit once its Wilson 95%% interval "
                              "is at most this wide (checked on deterministic "
                              "wave boundaries)")
    _add_supervision_args(durable)


def _add_supervision_args(parser) -> None:
    """Fault-injection and retry knobs shared by the campaigns and ``serve``."""
    parser.add_argument("--chaos", type=_fault_spec, default=None, metavar="SPEC",
                        help="fault-injection spec for chaos testing, e.g. "
                             "'crash=0.15,hang=0.08,seed=7' or 'abort=3,"
                             "seed=7' (keys: crash/hang/exc/decode/torn "
                             "rates, seed, abort, hang-seconds, max-faults, "
                             "only)")
    parser.add_argument("--block-timeout", type=_positive_float, default=300.0,
                        metavar="SECONDS",
                        help="per-block deadline before the worker is "
                             "presumed hung and restarted")
    parser.add_argument("--max-attempts", type=_positive_int, default=3,
                        help="attempts per block before quarantine")
    parser.add_argument("--retry-base-delay", type=_positive_float, default=0.05,
                        metavar="SECONDS",
                        help="base of the exponential retry backoff")


def _retry_policy(args):
    """The ``RetryPolicy`` that :func:`_add_supervision_args`' flags set."""
    from repro.durable import RetryPolicy

    return RetryPolicy(
        block_timeout=args.block_timeout,
        max_attempts=args.max_attempts,
        retry_base_delay=args.retry_base_delay,
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability knobs shared by the campaign commands."""
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="enable observability for this run and write "
                             "metrics.json (registry snapshot, renderable "
                             "with `repro metrics`) and trace.jsonl (spans, "
                             "renderable with `repro trace`) into DIR")


@contextlib.contextmanager
def _obs_session(args):
    """Arm metrics + tracing for one campaign command when requested.

    With ``--obs-dir`` the registry and tracer are enabled before the
    body runs (``REPRO_OBS=1`` is exported so spawned fleet workers arm
    themselves and ship metric deltas back with their block results),
    and the snapshot/spans are dumped on the way out — including on an
    interrupted run, so a checkpointed campaign still leaves its
    telemetry behind.  Observability never changes results; the engine's
    block RNG streams are independent of instrumentation (pinned by
    test_obs).
    """
    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir is None:
        yield
        return
    import json as _json

    from repro import obs

    os.makedirs(obs_dir, exist_ok=True)
    had_env = os.environ.get("REPRO_OBS")
    os.environ["REPRO_OBS"] = "1"
    reg = obs.enable()
    tracer = obs.enable_tracing()
    try:
        yield
    finally:
        if had_env is None:
            os.environ.pop("REPRO_OBS", None)
        snapshot = reg.snapshot()
        metrics_path = os.path.join(obs_dir, "metrics.json")
        with open(metrics_path, "w") as handle:
            _json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        trace_path = os.path.join(obs_dir, "trace.jsonl")
        written = tracer.write_jsonl(trace_path)
        obs.disable_tracing()
        obs.disable()
        print(f"obs: wrote {metrics_path} ({len(snapshot)} instruments) and "
              f"{trace_path} ({written} spans)")


def _run_durable(args, spec: dict, body) -> int:
    """Run ``body(executor)`` under the durable harness when requested.

    Without ``--ledger`` the body runs plain (``executor=None``).  With
    it, the campaign checkpoints into the ledger, SIGINT/SIGTERM become
    graceful stops (exit 130 with everything completed still durable),
    and the durability report is appended to the output.  All campaign
    commands route through here, so this is also the single place
    ``--obs-dir`` arms and dumps observability.
    """
    with _obs_session(args):
        if args.ledger is None:
            for flag, value in (("--resume", args.resume),
                                ("--target-ci-width", args.target_ci_width),
                                ("--chaos", args.chaos)):
                if value:
                    print(f"error: {flag} requires --ledger", file=sys.stderr)
                    return 2
            return body(None)
        from repro.durable import (
            CampaignInterrupted,
            DurableExecutor,
            LedgerError,
            RunLedger,
            graceful_interrupts,
        )

        if (os.path.exists(args.ledger) and os.path.getsize(args.ledger) > 0
                and not args.resume):
            print(f"error: ledger {args.ledger} already exists; pass --resume "
                  f"to continue that campaign (or choose a fresh path)",
                  file=sys.stderr)
            return 2
        try:
            ledger = RunLedger(args.ledger, spec, fault=args.chaos)
        except LedgerError as exc:
            print(f"ledger error: {exc}", file=sys.stderr)
            return 2
        executor = DurableExecutor(
            ledger,
            workers=args.workers,
            policy=_retry_policy(args),
            fault=args.chaos,
            target_ci_width=args.target_ci_width,
        )
        try:
            with graceful_interrupts(executor):
                code = body(executor)
            print()
            print(executor.format_report())
            return 1 if executor.failed_blocks else code
        except CampaignInterrupted as exc:
            print(f"\n{exc}", file=sys.stderr)
            return 130
        except LedgerError as exc:
            print(f"ledger error: {exc}", file=sys.stderr)
            return 2
        finally:
            ledger.close()


def _cmd_tables(_args) -> int:
    from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE
    from repro.magic import qubit_cost_table
    from repro.report import ascii_table

    base = dict(BASELINE_HARDWARE.table_rows())
    mem = dict(MEMORY_HARDWARE.table_rows())
    rows = [(k, base[k], mem[k]) for k in base]
    print(ascii_table(["parameter", "baseline", "with memory"], rows,
                      title="Table I: hardware model"))
    print()
    print(ascii_table(
        ["protocol", "# transmons", "# cavities", "total qubits"],
        [c.row() for c in qubit_cost_table(distance=5, cavity_modes=10)],
        title="Table II: T-factory qubit costs (d=5, k=10)",
    ))
    return 0


def _cmd_magic(_args) -> int:
    from repro.magic import (
        FAST_LATTICE,
        PROTOCOLS,
        SMALL_LATTICE,
        VQUBITS,
        generation_rate,
        patches_for_one_state_per_step,
        speedup_over,
    )
    from repro.report import ascii_table

    rows = [
        (p.name, f"{generation_rate(p, 100):.4f}",
         f"{patches_for_one_state_per_step(p):.0f}")
        for p in PROTOCOLS
    ]
    print(ascii_table(
        ["protocol", "|T>/step @100 patches", "patches for 1 |T>/step"],
        rows, title="Fig. 13: magic-state factories",
    ))
    print(f"VQubits speedups: {speedup_over(VQUBITS, SMALL_LATTICE):.2f}x vs "
          f"Small, {speedup_over(VQUBITS, FAST_LATTICE):.2f}x vs Fast")
    return 0


def _cmd_inventory(args) -> int:
    from repro.core import Machine

    machine = Machine(
        stack_grid=(args.grid, args.grid),
        cavity_modes=args.modes,
        distance=args.distance,
        embedding=args.embedding,
    )
    print(f"machine: {machine.stack_grid[0]}x{machine.stack_grid[1]} stacks,"
          f" d={machine.distance}, k={machine.cavity_modes}, {machine.embedding}")
    print(f"  logical capacity : {machine.logical_capacity}")
    print(f"  transmons        : {machine.total_transmons}")
    print(f"  cavities         : {machine.total_cavities}")
    print(f"  total qubits     : {machine.total_qubits}")
    return 0


def _cmd_threshold(args) -> int:
    from repro.report import format_series
    from repro.sim import SHOT_BLOCK
    from repro.threshold import estimate_program_threshold, estimate_threshold

    ps = [2e-3, 4e-3, 6e-3, 9e-3, 1.3e-2]
    program_flags = (
        ("--qubits", args.qubits),
        ("--embedding", args.embedding),
        ("--refresh", args.refresh),
        ("--correlated", args.correlated or None),
    )
    if args.program is not None:
        if args.scheme is not None:
            raise ValueError("--scheme and --program are mutually exclusive")
        from repro.vlq import ArchitectureComparison, build_program

        qubits = 4 if args.qubits is None else args.qubits
        spec = {
            "command": "threshold", "program": args.program, "qubits": qubits,
            "embedding": args.embedding or "compact",
            "refresh": args.refresh or "dram", "correlated": args.correlated,
            "ps": ps, "distances": [3, 5], "shots": args.shots,
            "decoder": args.decoder, "backend": args.backend,
            "shot_block": SHOT_BLOCK, "version": 1,
        }

        def body(executor) -> int:
            study = estimate_program_threshold(
                build_program(args.program, qubits),
                physical_error_rates=ps,
                distances=(3, 5),
                embedding=args.embedding or "compact",
                refresh=args.refresh or "dram",
                shots=args.shots,
                correlated=args.correlated,
                policy="surgery_only" if args.correlated else "auto",
                decoder=args.decoder,
                workers=args.workers,
                backend=args.backend,
                program_name=args.program,
                executor=executor,
            )
            series = {f"d={d}": study.rates[d] for d in study.distances}
            marks = {f"d={d}": study.uncovered_windows[d] for d in study.distances}
            print(format_series(
                ps, series, xlabel="p",
                title=(f"program: {args.program}({qubits}) "
                       f"{study.embedding}/{study.refresh}"
                       f"{' correlated' if study.correlated else ''}"),
                marks=marks,
            ))
            uncovered = study.uncovered_points()
            if uncovered:
                print(ArchitectureComparison.UNCOVERED_FOOTNOTE)
                print(f"warning: uncovered surgery windows at {'; '.join(uncovered)}: "
                      "the joint rates of these points are not joint estimates",
                      file=sys.stderr)
            threshold = study.threshold_estimate()
            print("program threshold estimate:",
                  "not bracketed" if threshold is None else f"{threshold:.4f}")
            return 0

        return _run_durable(args, spec, body)
    for flag, value in program_flags:
        if value is not None:
            raise ValueError(f"{flag} requires --program")
    scheme = args.scheme or "baseline"
    spec = {
        "command": "threshold", "scheme": scheme, "ps": ps,
        "distances": [3, 5], "shots": args.shots, "decoder": args.decoder,
        "backend": args.backend, "shot_block": SHOT_BLOCK, "version": 1,
    }

    def body(executor) -> int:
        study = estimate_threshold(
            scheme,
            physical_error_rates=ps,
            distances=(3, 5),
            shots=args.shots,
            decoder=args.decoder,
            workers=args.workers,
            backend=args.backend,
            executor=executor,
        )
        series = {f"d={d}": study.logical_rates(d) for d in sorted(study.results)}
        print(format_series(ps, series, xlabel="p", title=f"scheme: {scheme}"))
        threshold = study.threshold_estimate()
        print("threshold estimate:",
              "not bracketed" if threshold is None else f"{threshold:.4f}")
        return 0

    return _run_durable(args, spec, body)


def _cmd_memory(args) -> int:
    from repro.service.specs import build_memory_spec, run_spec

    # Shared with the service so CLI and HTTP submissions of the same
    # campaign hash to the same run key (and hence the same ledger).
    spec = build_memory_spec(
        scheme=args.scheme, distance=args.distance, p=args.p,
        rounds=args.rounds, basis=args.basis, shots=args.shots,
        seed=args.seed, decoder=args.decoder, backend=args.backend,
    )

    def body(executor) -> int:
        print(run_spec(spec, executor, workers=args.workers))
        return 0

    return _run_durable(args, spec, body)


def _cmd_compare(args) -> int:
    from repro.service.specs import build_compare_spec, run_spec

    embeddings = ("compact", "natural") if args.embedding == "both" else (args.embedding,)
    refreshes = ("dram", "none") if args.refresh == "both" else (args.refresh,)
    # Shared with the service (same run key for the same campaign); the
    # builder resolves policy=None exactly as before — surgery_only when
    # correlated (so there is a joint error surface to measure), else
    # auto.
    spec = build_compare_spec(
        program=args.program, qubits=args.qubits, correlated=args.correlated,
        policy=args.policy, distances=list(args.distance), p=args.p,
        shots=args.shots, grid=args.grid, embeddings=list(embeddings),
        refresh_policies=list(refreshes),
        rounds_per_timestep=args.rounds_per_timestep, seed=args.seed,
        decoder=args.decoder, backend=args.backend,
    )

    def body(executor) -> int:
        _print_comparison(args, spec, run_spec(
            spec, executor, workers=args.workers, oracle_cert=args.oracle_cert
        ))
        return 0

    return _run_durable(args, spec, body)


def _print_comparison(args, spec: dict, comparison) -> None:
    from repro.report import ascii_table
    from repro.vlq import ArchitectureComparison

    print(ascii_table(
        ArchitectureComparison.TABLE_HEADERS,
        comparison.table_rows(),
        title=(
            f"Program-level comparison: {args.program}({args.qubits}), "
            f"p={args.p:g}, {args.shots} shots/qubit, "
            f"policy={spec['policy']}, backend={args.backend}"
        ),
    ))
    if args.correlated:
        print()
        print(ascii_table(
            ArchitectureComparison.CORRELATED_TABLE_HEADERS,
            comparison.correlated_table_rows(),
            title="Independent vs joint (merged surgery windows, one decode per pair)",
        ))
        uncovered = comparison.uncovered_rows()
        if uncovered:
            print(ArchitectureComparison.UNCOVERED_FOOTNOTE)
            print(f"warning: uncovered surgery windows in {'; '.join(uncovered)}: "
                  "the joint rates of these rows are not joint estimates",
                  file=sys.stderr)
    print()
    for row in comparison.rows:
        for qubit in row.per_qubit:
            print(f"  {row.embedding}/{row.refresh} d={row.distance} "
                  f"q{qubit.qubit}: {qubit.result}")
        if row.pieces is not None:
            for piece in row.pieces:
                if len(piece.qubits) != 2:
                    continue
                label = ",".join(f"q{q}" for q in piece.qubits)
                print(f"  {row.embedding}/{row.refresh} d={row.distance} "
                      f"joint {label} ({piece.windows} window(s)): {piece.result}")
    print()
    lowering = comparison.lowering_cache.stats()
    graph = comparison.graph_cache.stats()
    print(f"lowering cache: {lowering['entries']} shapes, "
          f"{lowering['hits']} hits, {lowering['misses']} misses")
    print(f"decoder-graph cache: {graph['entries']} shapes, "
          f"{graph['hits']} hits, {graph['misses']} misses")
    if args.correlated:
        joint = comparison.joint_cache.stats()
        joint_graph = comparison.joint_graph_cache.stats()
        print(f"joint-lowering cache: {joint['entries']} shapes, "
              f"{joint['hits']} hits, {joint['misses']} misses")
        print(f"joint-graph cache: {joint_graph['entries']} shapes, "
              f"{joint_graph['hits']} hits, {joint_graph['misses']} misses")
        oracle = " (+ tableau oracle)" if args.oracle_cert else ""
        print(f"joint lowerings proven deterministic by symbolic GF(2) "
              f"propagation{oracle}: {joint['misses']} shape(s)")


def _cmd_lint(args) -> int:
    if args.ledger_only and args.ledger is None:
        print("error: --ledger-only requires --ledger", file=sys.stderr)
        return 2
    if args.ledger_only:
        from repro.analyze import LintReport

        report = LintReport()
    else:
        from repro.analyze import lint_matrix

        report = lint_matrix(
            programs=tuple(args.programs),
            qubits=args.qubits,
            distances=tuple(args.distance),
            embeddings=(
                ("natural", "compact") if args.embedding == "both" else (args.embedding,)
            ),
            oracle=args.oracle_cert,
        )
    if args.ledger is not None:
        from repro.durable import lint_ledger, lint_ledger_dir

        if os.path.isdir(args.ledger):
            # A service directory: lint every *.jsonl ledger in it with
            # per-file diagnostics (plus the filename/run-key check).
            ledger_report = lint_ledger_dir(args.ledger)
        else:
            ledger_report = lint_ledger(args.ledger)
            ledger_report.count("ledgers")
        report.extend(ledger_report.diagnostics)
        for what, n in ledger_report.checked.items():
            report.count(what, n)
    output = report.to_json() if args.json else report.format_text()
    print(output)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    return 0 if report.ok else 1


def _cmd_metrics(args) -> int:
    import json as _json

    from repro import obs

    try:
        with open(args.snapshot) as handle:
            snapshot = _json.load(handle)
    except (OSError, _json.JSONDecodeError) as exc:
        print(f"error: cannot read snapshot {args.snapshot}: {exc}",
              file=sys.stderr)
        return 2
    title = args.snapshot
    if args.diff is not None:
        try:
            with open(args.diff) as handle:
                before = _json.load(handle)
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"error: cannot read snapshot {args.diff}: {exc}",
                  file=sys.stderr)
            return 2
        # Counters/histograms diff; gauges pass through at their newer
        # reading (same semantics workers use to ship block deltas).
        snapshot = obs.snapshot_delta(snapshot, before)
        title = f"{args.snapshot} minus {args.diff}"
    if args.prometheus:
        sys.stdout.write(obs.prometheus_text(snapshot))
        return 0
    print(obs.format_snapshot(snapshot, title=title))
    return 0


def _cmd_trace(args) -> int:
    import json as _json

    from repro import obs

    try:
        spans = obs.load_jsonl(args.trace)
    except (OSError, _json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.chrome is not None:
        document = obs.chrome_trace(spans)
        with open(args.chrome, "w") as handle:
            _json.dump(document, handle)
            handle.write("\n")
        print(f"wrote {len(document['traceEvents'])} trace_event record(s) "
              f"to {args.chrome} (open in chrome://tracing or Perfetto)")
    rows = obs.summarize_spans(spans)
    if not rows:
        print("(no spans)")
        return 0
    print(f"{'span':<28} {'count':>7} {'total':>12} {'self':>12}")
    for row in rows[:args.top]:
        print(f"{row['name']:<28} {row['count']:>7} "
              f"{row['total_ns'] / 1e6:>10.3f}ms {row['self_ns'] / 1e6:>10.3f}ms")
    if len(rows) > args.top:
        print(f"... {len(rows) - args.top} more span name(s); raise --top")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve_forever

    return serve_forever(
        directory=args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        policy=_retry_policy(args),
        fault=args.chaos,
        job_timeout=args.job_timeout,
        breaker_threshold=args.breaker_threshold,
        verbose=args.verbose,
    )


def _service_url(args) -> str | None:
    from repro.service import read_service_address

    if args.url is not None:
        return args.url
    if args.dir is not None:
        try:
            return read_service_address(args.dir)
        except (FileNotFoundError, KeyError, ValueError):
            print(f"error: no service.json under {args.dir} (is the server "
                  f"running with --dir {args.dir}?)", file=sys.stderr)
            return None
    print("error: pass --url or --dir to locate the service", file=sys.stderr)
    return None


def _cmd_submit(args) -> int:
    import json as _json

    from repro.service import ServiceClient

    url = _service_url(args)
    if url is None:
        return 2
    try:
        payload = _json.loads(args.json)
    except _json.JSONDecodeError as exc:
        print(f"error: invalid --json payload: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(url)
    code, body = client.submit(payload)
    print(_json.dumps(body, indent=2, sort_keys=True))
    if code not in (200, 202):
        # Explicit admission rejection (400/409/429/503) — never a hang.
        return 1
    if not args.wait:
        return 0
    job = client.wait(body["id"], timeout=args.timeout)
    print(_json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] == "done" else 1


def _cmd_status(args) -> int:
    import json as _json

    from repro.service import ServiceClient

    url = _service_url(args)
    if url is None:
        return 2
    code, body = ServiceClient(url).status(args.id)
    print(_json.dumps(body, indent=2, sort_keys=True))
    return 0 if code == 200 else 1


def _cmd_wait(args) -> int:
    import json as _json

    from repro.service import ServiceClient

    url = _service_url(args)
    if url is None:
        return 2
    try:
        job = ServiceClient(url).wait(args.id, timeout=args.timeout)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] == "done" else 1


def _add_service_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default=None,
                        help="service base URL, e.g. http://127.0.0.1:8642")
    parser.add_argument("--dir", default=None, metavar="PATH",
                        help="service directory; the server's address is "
                             "read from its service.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tables")
    sub.add_parser("magic")
    inventory = sub.add_parser("inventory")
    inventory.add_argument("--grid", type=_positive_int, default=2)
    inventory.add_argument("--modes", type=_positive_int, default=10)
    inventory.add_argument("--distance", type=_odd_distance, default=5)
    inventory.add_argument("--embedding", choices=("natural", "compact"),
                           default="compact")
    threshold = sub.add_parser("threshold")
    threshold.add_argument("--scheme", choices=_SCHEME_CHOICES, default=None,
                           help="single-patch scheme (default: baseline; "
                                "mutually exclusive with --program)")
    threshold.add_argument("--shots", type=_positive_int, default=500)
    threshold.add_argument("--program", choices=("pairs", "ghz", "t"), default=None,
                           help="estimate a PROGRAM-level threshold (p where "
                                "growing d stops helping the whole program) "
                                "instead of a single-patch scheme")
    threshold.add_argument("--qubits", type=_positive_int, default=None,
                           help="program size for --program (default 4)")
    threshold.add_argument("--embedding", choices=("compact", "natural"),
                           default=None,
                           help="machine for --program (default compact)")
    threshold.add_argument("--refresh", choices=("dram", "none"), default=None,
                           help="refresh policy for --program (default dram)")
    threshold.add_argument("--correlated", action="store_true",
                           help="with --program: sweep the joint (merged "
                                "surgery window) p_program")
    _add_engine_args(threshold)
    _add_durable_args(threshold)
    _add_obs_args(threshold)

    memory = sub.add_parser(
        "memory", help="one logical-memory Monte-Carlo point"
    )
    memory.add_argument("--scheme", choices=_SCHEME_CHOICES, default="baseline",
                        help="baseline | natural_* | compact_* (see Fig. 11)")
    memory.add_argument("--distance", type=_odd_distance, default=3)
    memory.add_argument("--p", type=_probability, default=2e-3,
                        help="physical error rate (coherence pinned at Table I)")
    memory.add_argument("--rounds", type=_positive_int, default=None,
                        help="extraction rounds (default: distance)")
    memory.add_argument("--basis", choices=("Z", "X"), default="Z")
    memory.add_argument("--shots", type=_positive_int, default=2000)
    memory.add_argument("--seed", type=int, default=0)
    _add_engine_args(memory)
    _add_durable_args(memory)
    _add_obs_args(memory)

    compare = sub.add_parser(
        "compare", help="program-level compact-vs-natural architecture comparison"
    )
    compare.add_argument("--program", choices=("pairs", "ghz", "t"), default="pairs")
    compare.add_argument("--qubits", type=_positive_int, default=4)
    compare.add_argument("--correlated", action="store_true",
                         help="additionally lower lattice-surgery pairs as "
                              "merged-patch circuits with one joint decode "
                              "and report independent vs joint p_program "
                              "(defaults the CNOT policy to surgery_only)")
    compare.add_argument("--policy",
                         choices=("auto", "surgery_only", "transversal_preferred"),
                         default=None,
                         help="compiler CNOT policy (default: auto, or "
                              "surgery_only when --correlated)")
    compare.add_argument("--distance", type=_odd_distance, nargs="+", default=[3])
    compare.add_argument("--p", type=_probability, default=2e-3)
    compare.add_argument("--shots", type=_positive_int, default=2000,
                         help="Monte-Carlo shots per logical qubit")
    compare.add_argument("--grid", type=_positive_int, default=2,
                         help="stack grid side (grid x grid stacks)")
    compare.add_argument("--embedding", choices=("both", "compact", "natural"),
                         default="both")
    compare.add_argument("--refresh", choices=("both", "dram", "none"),
                         default="both",
                         help="DRAM-style background refresh vs the no-refresh"
                              " ablation")
    compare.add_argument("--rounds-per-timestep", type=_positive_int, default=1,
                         help="extraction rounds per compiler timestep (the "
                              "paper's clock is d; 1 keeps sweeps fast)")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--oracle-cert", action="store_true",
                         help="cross-check the symbolic determinism proofs "
                              "against the sampled stabilizer-tableau oracle")
    _add_engine_args(compare)
    _add_durable_args(compare)
    _add_obs_args(compare)

    lint = sub.add_parser(
        "lint", help="static analysis of the preset matrix (symbolic GF(2) "
                     "proofs, schedule dataflow checks, decoder-graph "
                     "validation); exits 1 on any error-severity finding"
    )
    lint.add_argument("--programs", nargs="+", choices=("pairs", "ghz", "t"),
                      default=["ghz", "pairs", "t"],
                      help="program presets to lint")
    lint.add_argument("--qubits", type=_positive_int, default=4)
    lint.add_argument("--distance", type=_odd_distance, nargs="+", default=[3])
    lint.add_argument("--embedding", choices=("both", "compact", "natural"),
                      default="both")
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of text")
    lint.add_argument("--out", default=None,
                      help="also write the JSON report to this path")
    lint.add_argument("--oracle-cert", action="store_true",
                      help="cross-check every symbolic proof against the "
                           "sampled stabilizer-tableau oracle")
    lint.add_argument("--ledger", default=None, metavar="PATH",
                      help="additionally consistency-check a durable run "
                           "ledger (LED00x diagnostics: header/corruption, "
                           "tier accounting, unit reconciliation); a "
                           "directory lints every *.jsonl ledger in it")
    lint.add_argument("--ledger-only", action="store_true",
                      help="lint only the --ledger file, skipping the preset "
                           "matrix")

    metrics_p = sub.add_parser(
        "metrics", help="render a metrics snapshot written by --obs-dir "
                        "(or diff two snapshots)"
    )
    metrics_p.add_argument("snapshot", metavar="SNAPSHOT.json",
                           help="registry snapshot (metrics.json from "
                                "--obs-dir, or a /metrics-era dump)")
    metrics_p.add_argument("--diff", default=None, metavar="BEFORE.json",
                           help="subtract this earlier snapshot: counters and "
                                "histogram cells diff, gauges show the newer "
                                "reading")
    metrics_p.add_argument("--prometheus", action="store_true",
                           help="emit Prometheus text exposition (version "
                                "0.0.4) instead of the human rendering")

    trace_p = sub.add_parser(
        "trace", help="summarize a span trace written by --obs-dir; "
                      "--chrome exports chrome://tracing / Perfetto "
                      "trace_event JSON for a flamegraph view"
    )
    trace_p.add_argument("trace", metavar="TRACE.jsonl",
                         help="span JSONL (trace.jsonl from --obs-dir)")
    trace_p.add_argument("--chrome", default=None, metavar="OUT.json",
                         help="also write Chrome trace_event JSON here")
    trace_p.add_argument("--top", type=_positive_int, default=20,
                         help="span names to show in the summary table")

    serve = sub.add_parser(
        "serve", help="run the long-lived campaign service: persistent "
                      "supervised worker fleet, shared caches, durable "
                      "crash-safe jobs over HTTP (drains and exits 130 on "
                      "SIGTERM)"
    )
    serve.add_argument("--dir", required=True, metavar="PATH",
                       help="service directory for job records and run "
                            "ledgers; restarting against the same directory "
                            "resumes in-flight jobs bit-identically")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; the bound port is "
                            "published in <dir>/service.json)")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="persistent fleet size (1 = run jobs inline)")
    serve.add_argument("--queue-limit", type=_positive_int, default=16,
                       help="max queued jobs before submissions get an "
                            "explicit 429 (admission control)")
    serve.add_argument("--job-timeout", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget; an over-budget job "
                            "checkpoints and fails explicitly")
    serve.add_argument("--breaker-threshold", type=_positive_int, default=3,
                       help="failed runs of one spec before its circuit "
                            "breaker opens (submissions get 409)")
    _add_supervision_args(serve.add_argument_group(
        "supervision", "fault injection and block retries for every job"
    ))
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running service"
    )
    _add_service_client_args(submit)
    submit.add_argument("--json", required=True, metavar="SPEC",
                        help="job payload as JSON, e.g. "
                             "'{\"command\":\"memory\",\"shots\":2048}'")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal state")
    submit.add_argument("--timeout", type=_positive_float, default=600.0,
                        metavar="SECONDS", help="deadline for --wait")

    status = sub.add_parser("status", help="show one job's record")
    _add_service_client_args(status)
    status.add_argument("id", help="job id (the campaign's run key)")

    wait = sub.add_parser(
        "wait", help="block until a job reaches a terminal state"
    )
    _add_service_client_args(wait)
    wait.add_argument("id", help="job id (the campaign's run key)")
    wait.add_argument("--timeout", type=_positive_float, default=600.0,
                      metavar="SECONDS")

    args = parser.parse_args(argv)
    try:
        return {
            "tables": _cmd_tables,
            "magic": _cmd_magic,
            "inventory": _cmd_inventory,
            "threshold": _cmd_threshold,
            "memory": _cmd_memory,
            "compare": _cmd_compare,
            "lint": _cmd_lint,
            "metrics": _cmd_metrics,
            "trace": _cmd_trace,
            "serve": _cmd_serve,
            "submit": _cmd_submit,
            "status": _cmd_status,
            "wait": _cmd_wait,
        }[args.command](args)
    except BrokenPipeError:
        # `repro metrics ... | head` closes stdout early; exit quietly
        # instead of dumping a traceback.  Redirect stdout to devnull so
        # the interpreter's shutdown flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
