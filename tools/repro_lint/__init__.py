"""repro_lint — domain-aware static analysis for the repro codebase.

A per-file rule engine: each file is parsed once and every active rule
is a small AST walk over it, with a content-hash cache and ``--jobs``
parallelism on top.

The rules machine-check the conventions the reproduction's correctness
rests on: numerically stable Boltzmann accepts (RL001), explicit
seeded ``Generator`` RNG (RL002), pickle-safety across the
``repro.runtime`` process-pool boundary (RL003), no shared mutable
defaults (RL004), no blanket handlers that swallow ``AnnealerError``
(RL005), telemetry-owned wall-clock reads in solver kernels (RL006),
bounded retry loops (RL007), no blocking calls on the async serving
path (RL008), bit-exactness of batched kernels (RL010), and no stale
suppression comments (RL011).

Usage::

    python -m repro_lint src tests benchmarks tools
    python -m repro_lint --format json src
    python -m repro_lint --format sarif --jobs 4 src
    python -m repro_lint --cache-path .lint-cache.json src
    python -m repro_lint --list-rules

Suppress a finding with a justification::

    np.random.SeedSequence()  # repro-lint: ignore[RL002] — entropy root

See ``docs/static-analysis.md`` for the rule catalogue and how to add
rules.
"""

from repro_lint.cache import LintCache  # noqa: F401
from repro_lint.engine import (  # noqa: F401
    LintReport,
    discover_files,
    lint_file,
    lint_paths,
)
from repro_lint.registry import (  # noqa: F401
    Rule,
    all_rules,
    get_rule,
    register,
    rule_codes,
    select_rules,
)
from repro_lint.reporters import (  # noqa: F401
    render_json,
    render_sarif,
    render_text,
    to_sarif,
)
from repro_lint.violations import Violation  # noqa: F401

# Importing the rules package registers the built-in RLnnn rules.
import repro_lint.rules  # noqa: F401  isort:skip

__version__ = "3.0.0"

__all__ = [
    "LintCache",
    "LintReport",
    "Rule",
    "Violation",
    "all_rules",
    "discover_files",
    "get_rule",
    "lint_file",
    "lint_paths",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_codes",
    "select_rules",
    "to_sarif",
    "__version__",
]
