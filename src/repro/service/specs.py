"""Canonical campaign specs and the one runner shared by the CLI and the service.

The durability layer identifies a campaign by ``run_key(spec)`` — the
SHA-256 of the canonical JSON spec — so the CLI and the service MUST
build byte-identical spec dicts for the same campaign, or a job
submitted over HTTP could never resume a ledger the CLI started (and
the bit-identity acceptance gate, which diffs a service ledger against
a CLI ledger, would trivially fail).  These builders are that single
source of truth: ``__main__.py`` calls them for ``memory``/``compare``
and the service calls them for every submitted payload.

``run_spec`` is the matching single path from spec to campaign: it
builds the campaign from nothing but the spec and returns its result
object — a ``LogicalErrorResult`` for ``memory``, an
``ArchitectureComparison`` for ``compare``.  The CLI's ``memory`` and
``compare`` commands print that object; the service's ``execute_spec``
runs it under the job's durable executor and returns a JSON summary
whose ``units`` are exactly the units the job's ledger holds.  The
executor, worker count and shared caches change wall-clock, never
counts, so a job runs the same computation no matter which front-end
accepted it.
"""

from __future__ import annotations

__all__ = [
    "SpecError",
    "build_compare_spec",
    "build_memory_spec",
    "execute_spec",
    "run_spec",
    "spec_from_payload",
]

#: Single-patch schemes (mirrors ``repro.threshold.SCHEMES``).
SCHEMES = (
    "baseline",
    "natural_all_at_once",
    "natural_interleaved",
    "compact_all_at_once",
    "compact_interleaved",
)
PROGRAMS = ("pairs", "ghz", "t")
POLICIES = ("auto", "surgery_only", "transversal_preferred")
BACKENDS = ("packed", "reference")
DECODERS = ("unionfind", "mwpm")


class SpecError(ValueError):
    """A submitted campaign spec is invalid (HTTP 400 at the server)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value > 0, f"{name} must be a positive integer, got {value!r}")
    return value


def _odd_distance(value, name: str = "distance") -> int:
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= 3 and value % 2 == 1,
             f"{name} must be an odd integer >= 3, got {value!r}")
    return value


def _probability(value, name: str = "p") -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and 0.0 < float(value) < 1.0,
             f"{name} must be a probability in (0, 1), got {value!r}")
    return float(value)


def _choice(value, choices, name: str):
    _require(value in choices, f"{name} must be one of {choices}, got {value!r}")
    return value


def build_memory_spec(
    *,
    scheme: str = "baseline",
    distance: int = 3,
    p: float = 2e-3,
    rounds: int | None = None,
    basis: str = "Z",
    shots: int = 2000,
    seed: int = 0,
    decoder: str = "unionfind",
    backend: str = "packed",
) -> dict:
    """The ``memory`` campaign spec — field-identical to the CLI's."""
    from repro.sim import SHOT_BLOCK

    return {
        "command": "memory",
        "scheme": _choice(scheme, SCHEMES, "scheme"),
        "distance": _odd_distance(distance),
        "p": _probability(p),
        "rounds": rounds if rounds is None else _positive_int(rounds, "rounds"),
        "basis": _choice(basis, ("Z", "X"), "basis"),
        "shots": _positive_int(shots, "shots"),
        "seed": _int(seed, "seed"),
        "decoder": _choice(decoder, DECODERS, "decoder"),
        "backend": _choice(backend, BACKENDS, "backend"),
        "shot_block": SHOT_BLOCK,
        "version": 1,
    }


def build_compare_spec(
    *,
    program: str = "pairs",
    qubits: int = 4,
    correlated: bool = False,
    policy: str | None = None,
    distances=(3,),
    p: float = 2e-3,
    shots: int = 2000,
    grid: int = 2,
    embeddings=("compact", "natural"),
    refresh_policies=("dram", "none"),
    rounds_per_timestep: int = 1,
    seed: int = 0,
    decoder: str = "unionfind",
    backend: str = "packed",
) -> dict:
    """The ``compare`` campaign spec — field-identical to the CLI's.

    ``policy=None`` resolves exactly as the CLI does: ``surgery_only``
    when correlated (so there is a joint error surface to measure),
    ``auto`` otherwise.  A size the program cannot take (``pairs`` and
    ``t`` need an even number of qubits) is rejected here, before a
    ledger or a job exists.
    """
    from repro.sim import SHOT_BLOCK
    from repro.vlq import build_program

    program = _choice(program, PROGRAMS, "program")
    qubits = _positive_int(qubits, "qubits")
    try:
        build_program(program, qubits)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    _require(isinstance(correlated, bool), "correlated must be a boolean")
    if policy is None:
        policy = "surgery_only" if correlated else "auto"
    distances = [_odd_distance(d) for d in _as_list(distances, "distances")]
    _require(len(distances) > 0, "distances must be non-empty")
    embeddings = [
        _choice(e, ("compact", "natural"), "embedding")
        for e in _as_list(embeddings, "embeddings")
    ]
    _require(len(embeddings) > 0, "embeddings must be non-empty")
    refresh_policies = [
        _choice(r, ("dram", "none"), "refresh policy")
        for r in _as_list(refresh_policies, "refresh_policies")
    ]
    _require(len(refresh_policies) > 0, "refresh_policies must be non-empty")
    return {
        "command": "compare",
        "program": program,
        "qubits": qubits,
        "correlated": correlated,
        "policy": _choice(policy, POLICIES, "policy"),
        "distances": distances,
        "p": _probability(p),
        "shots": _positive_int(shots, "shots"),
        "grid": _positive_int(grid, "grid"),
        "embeddings": embeddings,
        "refresh_policies": refresh_policies,
        "rounds_per_timestep": _positive_int(
            rounds_per_timestep, "rounds_per_timestep"
        ),
        "seed": _int(seed, "seed"),
        "decoder": _choice(decoder, DECODERS, "decoder"),
        "backend": _choice(backend, BACKENDS, "backend"),
        "shot_block": SHOT_BLOCK,
        "version": 1,
    }


def _as_list(value, name: str) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    raise SpecError(f"{name} must be a list, got {value!r}")


_BUILDERS = {"memory": build_memory_spec, "compare": build_compare_spec}


def spec_from_payload(payload: dict) -> dict:
    """Validate and canonicalize a submitted job payload into a spec.

    The payload is the spec's own vocabulary (``command`` plus builder
    keyword fields); unknown fields are rejected rather than ignored, so
    a typo cannot silently submit a different campaign than intended.
    """
    _require(isinstance(payload, dict), "job payload must be a JSON object")
    command = payload.get("command")
    _require(command in _BUILDERS,
             f"command must be one of {sorted(_BUILDERS)}, got {command!r}")
    builder = _BUILDERS[command]
    kwargs = {k: v for k, v in payload.items() if k != "command"}
    # Fields the builder stamps itself are accepted back verbatim only
    # when they agree (idempotent round-trip of a previous spec).
    for stamped in ("shot_block", "version"):
        kwargs.pop(stamped, None)
    import inspect

    allowed = set(inspect.signature(builder).parameters)
    unknown = sorted(set(kwargs) - allowed)
    _require(not unknown, f"unknown spec field(s) for {command!r}: {unknown}")
    spec = builder(**kwargs)
    for stamped in ("shot_block", "version"):
        if stamped in payload:
            _require(
                payload[stamped] == spec[stamped],
                f"{stamped}={payload[stamped]!r} does not match this engine "
                f"({spec[stamped]!r})",
            )
    return spec


def run_spec(
    spec: dict,
    executor=None,
    *,
    workers: int = 1,
    oracle_cert: bool = False,
    lowering_cache=None,
    graph_cache=None,
    joint_cache=None,
    joint_graph_cache=None,
):
    """Run the campaign a ``memory`` or ``compare`` spec describes.

    Returns the campaign's result object: a
    :class:`~repro.sim.LogicalErrorResult` for ``memory``, an
    :class:`~repro.vlq.ArchitectureComparison` for ``compare``.
    ``executor`` (a ``DurableExecutor``, or None to count in process
    with ``workers``) and the build caches (``compare`` only) change
    wall-clock, never counts; ``oracle_cert`` adds the tableau
    cross-check to every ``compare`` certificate.
    """
    command = spec["command"]
    if command == "memory":
        from repro.noise import ErrorModel
        from repro.sim import run_memory_experiment
        from repro.threshold import build_memory_circuit
        from repro.threshold.estimator import default_hardware_for

        model = ErrorModel(
            hardware=default_hardware_for(spec["scheme"]),
            p=spec["p"],
            scale_coherence=False,
        )
        memory = build_memory_circuit(
            spec["scheme"], spec["distance"], model,
            basis=spec["basis"], rounds=spec["rounds"],
        )
        return run_memory_experiment(
            memory,
            shots=spec["shots"],
            decoder=spec["decoder"],
            seed=spec["seed"],
            workers=workers,
            backend=spec["backend"],
            executor=executor,
        )
    if command == "compare":
        from repro.vlq import build_program, compare_architectures

        return compare_architectures(
            build_program(spec["program"], spec["qubits"]),
            distances=tuple(spec["distances"]),
            embeddings=tuple(spec["embeddings"]),
            refresh_policies=tuple(spec["refresh_policies"]),
            p=spec["p"],
            shots=spec["shots"],
            stack_grid=(spec["grid"], spec["grid"]),
            policy=spec["policy"],
            rounds_per_timestep=spec["rounds_per_timestep"],
            decoder=spec["decoder"],
            seed=spec["seed"],
            workers=workers,
            backend=spec["backend"],
            program_name=spec["program"],
            correlated=spec["correlated"],
            oracle_cert=oracle_cert,
            executor=executor,
            lowering_cache=lowering_cache,
            graph_cache=graph_cache,
            joint_cache=joint_cache,
            joint_graph_cache=joint_graph_cache,
        )
    raise SpecError(f"unknown spec command {command!r}")


def execute_spec(
    spec: dict,
    executor,
    *,
    lowering_cache=None,
    graph_cache=None,
    joint_cache=None,
    joint_graph_cache=None,
) -> dict:
    """:func:`run_spec` under a durable ``executor``, summarized as JSON.

    The summary's ``units`` are the executor's unit outcomes, one per
    ledger unit with its label and totals: errors, shots, rate and
    Wilson interval (a unit with no completed shots reports rate 0.0
    and the vacuous interval [0, 1]).  A ``compare`` summary adds each
    sweep point's ``uncovered_windows`` and the build caches' stats.
    It is what a job's ``result`` field holds once it completes;
    decode-tier totals are served by the registry (``/metrics``).
    """
    from repro.sim import wilson_interval

    result = run_spec(
        spec, executor,
        lowering_cache=lowering_cache, graph_cache=graph_cache,
        joint_cache=joint_cache, joint_graph_cache=joint_graph_cache,
    )
    units = []
    for unit in executor.units:
        rate, ci = 0.0, [0.0, 1.0]
        if unit.shots > 0:
            rate = unit.errors / unit.shots
            ci = list(wilson_interval(unit.errors, unit.shots))
        units.append({"unit": unit.unit, "errors": unit.errors,
                      "shots": unit.shots, "rate": rate, "ci": ci})
    summary: dict = {"command": spec["command"], "units": units}
    if spec["command"] == "compare":
        summary["uncovered_windows"] = {
            f"{row.embedding}/{row.refresh}/d{row.distance}": row.uncovered_windows
            for row in result.rows
            if row.uncovered_windows
        }
        summary["caches"] = {
            "lowering": result.lowering_cache.stats(),
            "decoder_graph": result.graph_cache.stats(),
        }
    return summary
