"""Static contract linter: AST rules enforcing the repo's runtime invariants.

Public surface: :func:`run_check` walks one checkout and returns sorted
:class:`Finding` objects; :data:`RULES` is the closed tuple of rules it runs
(R001, R003, R004 and R005, in id order).  ``repro-anon check`` is the CLI
front end.
"""

from repro.analysis.lint.findings import Finding, apply_suppressions, suppressed_rules
from repro.analysis.lint.rules import RULES, ContractRule
from repro.analysis.lint.walker import Project, default_root, run_check

__all__ = [
    "ContractRule",
    "Finding",
    "Project",
    "RULES",
    "apply_suppressions",
    "default_root",
    "run_check",
    "suppressed_rules",
]
