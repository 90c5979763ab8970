"""Static analysis + runtime contracts for the reproduction itself.

``repro.analysis`` machine-checks the invariants the rest of the stack
relies on but previously enforced only by convention:

``engine`` / ``rules``
    reprolint — an AST rule engine with per-line ``# repro:
    allow[<rule>]`` pragmas.  Determinism rules (seeded Generator
    threading, no wall-clock in deterministic paths), API hygiene rules
    (deprecated shims, bare excepts, mutable defaults) and numerics
    rules (per-zone float dtype discipline).  Run it with
    ``python -m repro.cli lint src tests benchmarks examples``.
``graph`` / ``rules_arch``
    The whole-program pass: a project-wide import graph and def/use
    table built from the same parse the per-file rules visit, feeding
    the A-series layering contracts (cross-layer imports, import
    cycles, undeclared subsystems — checked against the DAG declared in
    ``LintConfig.layers``), the F-series fork-safety rules and the
    R-series resource-lifecycle rules.  ``cli lint --graph dot|json``
    dumps the subsystem graph; ``cli lint --check-layers`` gates CI on
    DAG drift.
``cache``
    The incremental lint cache (``.reprolint-cache.json``): per-file
    outcomes keyed by content hash + engine version + config + rule
    set, so a warm re-lint re-parses nothing.
``sarif``
    SARIF 2.1.0 export for GitHub code scanning (``cli lint --format
    sarif``).
``contracts``
    ``@shaped("(B,T,D) -> (B,H)")`` shape/dtype contracts on the
    ``repro.nn`` forwards, validated when ``REPRO_CHECK_CONTRACTS=1``
    and free otherwise.
"""

from .cache import CACHE_SCHEMA, ENGINE_VERSION, LintCache, config_key
from .contracts import (
    ContractError, ContractSpecError, contract_checks, contracts_enabled,
    enable_contracts, shaped,
)
from .engine import (
    Finding, LintConfig, LintContext, LintResult, ProjectResult,
    ProjectRule, Rule, analyze_source, apply_fixes, lint_file,
    lint_paths, lint_project, lint_source, module_name_for,
)
from .graph import (
    ImportEdge, ModuleRecord, ProjectIndex, collect_record, layer_drift,
)
from .rules import ALL_RULES, rule_by_id
from .rules_arch import ALL_ARCH_FILE_RULES, ALL_PROJECT_RULES
from .sarif import SARIF_VERSION, to_sarif, validate_sarif

__all__ = [
    "ContractError", "ContractSpecError", "contract_checks",
    "contracts_enabled", "enable_contracts", "shaped",
    "Finding", "LintConfig", "LintContext", "LintResult", "Rule",
    "ProjectResult", "ProjectRule", "analyze_source", "apply_fixes",
    "lint_file", "lint_paths", "lint_project", "lint_source",
    "module_name_for", "ALL_RULES", "rule_by_id",
    "ALL_ARCH_FILE_RULES", "ALL_PROJECT_RULES",
    "ImportEdge", "ModuleRecord", "ProjectIndex", "collect_record",
    "layer_drift",
    "CACHE_SCHEMA", "ENGINE_VERSION", "LintCache", "config_key",
    "SARIF_VERSION", "to_sarif", "validate_sarif",
]
