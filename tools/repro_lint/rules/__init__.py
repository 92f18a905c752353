"""Built-in domain rules.

Importing this package registers every ``RLnnn`` rule with
:mod:`repro_lint.registry`.  Each rule lives in its own module so a
rule can be read, tested, and extended in isolation; adding a rule is
one new module plus an import line here.
"""

from repro_lint.rules import (  # noqa: F401  (imports register the rules)
    rl001_raw_exp,
    rl002_global_rng,
    rl003_pool_pickle,
    rl004_mutable_default,
    rl005_swallowed_except,
    rl006_wall_clock,
    rl007_unbounded_retry,
    rl008_blocking_async,
    rl010_bit_exactness,
    rl011_stale_suppression,
)
