"""Differential fuzzing & metamorphic testing (``lif fuzz``).

The repo carries four independent oracles — the reference interpreter vs
the compiled backend, the dynamic Covenant 1 checker, the static
constant-time certifier, and the per-pass optimizer sanitizer.  This
package turns them into a bug-finding machine: a seeded generator of
well-typed MiniC programs (plus straight IR-level generators) feeds every
sample through the full pipeline and cross-checks each oracle pair; any
disagreement is shrunk by a delta-debugging minimizer and stored as a
reduced reproducer in the deterministic on-disk corpus (``tests/corpus/``),
which is replayed as ordinary pytest cases.

* :mod:`repro.fuzz.spec` — the structured MiniC program representation
  the generator emits and the minimizer shrinks;
* :mod:`repro.fuzz.generators` — seeded (``random.Random``) MiniC and IR
  generators with size/feature knobs (:class:`FuzzConfig`);
* :mod:`repro.fuzz.strategies` — the Hypothesis strategies shared with
  the property tests (promoted from ``tests/property/generators.py``);
* :mod:`repro.fuzz.oracles` — the differential engine: the six oracle
  cross-checks over one sample;
* :mod:`repro.fuzz.minimize` — the deterministic delta-debugging shrinker;
* :mod:`repro.fuzz.corpus` — the reproducer store and replay loader;
* :mod:`repro.fuzz.engine` — one sample: generate (or take a materialized
  genotype), run every oracle, harvest its coverage keys, and minimize a
  disagreement;
* :mod:`repro.fuzz.coverage` — deterministic coverage keys (branch/call
  edges plus whitelisted obs counter deltas) and the campaign-wide
  :class:`CoverageMap`;
* :mod:`repro.fuzz.mutate` — the pure ``(parent, seed)`` mutation engine:
  MiniC splice/tweak/grow and IR perturbations, with a memory-safety
  sanitizer and fresh-sample fallback;
* :mod:`repro.fuzz.campaign` — the one campaign driver behind ``lif fuzz``
  (``--seed/--iterations/--jobs/--mutate/--checkpoint/--resume/--shards``):
  blind or coverage-guided round-synchronized sampling, process fan-out,
  per-oracle counters, sharded checkpoints, and byte-deterministic resume.

See ``docs/FUZZING.md`` for the oracle matrix, the coverage-guided
campaign design, and the corpus policy.
"""

from repro.fuzz.generators import (
    FuzzConfig,
    generate_inputs,
    generate_program,
    ir_module_inputs,
    random_ir_module,
    secret_family,
)
from repro.fuzz.spec import ProgramSpec, render_program

__all__ = [
    "FuzzConfig",
    "ProgramSpec",
    "generate_inputs",
    "generate_program",
    "ir_module_inputs",
    "random_ir_module",
    "render_program",
    "secret_family",
]
