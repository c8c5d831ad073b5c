"""repro.lint — AST-based static enforcement of the repo's invariants.

The dynamic test suite checks the reproducibility contracts (byte-identical
artefacts, zero-rate RNG identity, merge ≡ fold, crash-safe resume) on the
cases someone anticipated; this package rejects whole classes of violations
statically.  Four rule packs run over every module in the ``repro`` package:

==============  ========================================================
Rule id         Invariant enforced
==============  ========================================================
DET-WALLCLOCK   no wall-clock/timer reads in payload-producing modules
DET-GLOBALRNG   all randomness flows from explicit seeded generators
DET-IDKEY       no ``id()``-keyed mappings
DET-SETITER     no direct iteration over set values
RNG-GUARD       fault-seam RNG draws are dominated by rate/burst guards
SUM-EXACT       float accumulators in metrics modules use ExactSum
ART-ATOMIC      JSON artefact writes are atomic (fsync + ``os.replace``)
ART-JOURNAL     journal appends go through the audited journal helpers
LINT-SUPPRESS   (meta) suppressions are justified, used, and parseable
==============  ========================================================

Entry point: ``python -m repro lint``.  See ``docs/LINTING.md`` for the
suppression syntax.
"""

from __future__ import annotations

from repro.lint import artefact_safety, determinism, exact_sum, rng_guard
from repro.lint.engine import LintEngine, Rule

#: Every shipped rule, in stable registration order.
DEFAULT_RULES: tuple[Rule, ...] = tuple(
    determinism.RULES + rng_guard.RULES + exact_sum.RULES + artefact_safety.RULES
)

__all__ = ["DEFAULT_RULES", "LintEngine", "Rule"]
