"""Static-analysis passes over circuits, schedules and decoder graphs.

``symbolic`` proves detector/observable determinism by symbolic GF(2)
propagation (the static replacement for per-shape tableau runs, which
survive as its ``--oracle-cert`` cross-check),
``schedule`` lints compiled schedules, ``graph`` validates decoding
graphs and the flat union-find mirrors, and ``lint`` drives all three
over the preset matrix for the ``repro lint`` CLI subcommand.
"""

from repro.analyze.diagnostics import CODES, SEVERITIES, Diagnostic, LintReport
from repro.analyze.graph import lint_graph, lint_unionfind
from repro.analyze.lint import lint_instruments, lint_matrix
from repro.analyze.schedule import lint_schedule, static_refresh_violations
from repro.analyze.symbolic import (
    SymbolicCertificationError,
    SymbolicRun,
    SymbolicTableau,
    certify_deterministic,
    propagate,
    tableau_oracle,
    verify_circuit,
)

__all__ = [
    "CODES",
    "SEVERITIES",
    "Diagnostic",
    "LintReport",
    "SymbolicCertificationError",
    "SymbolicRun",
    "SymbolicTableau",
    "certify_deterministic",
    "lint_graph",
    "lint_instruments",
    "lint_matrix",
    "lint_schedule",
    "lint_unionfind",
    "propagate",
    "static_refresh_violations",
    "tableau_oracle",
    "verify_circuit",
]
