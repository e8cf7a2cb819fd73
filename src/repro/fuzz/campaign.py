"""The checkpointable fuzz campaign driver behind every ``lif fuzz``.

A campaign maps ``(seed, iterations)`` to a sample sequence and harvests
every sample's coverage.  Without ``--mutate`` the sequence is fixed
(sample ``index`` is the fresh ``seed * _SEED_STRIDE + index`` of kind
:func:`~repro.fuzz.engine.sample_kind`); with it, the coverage feedback
loop picks corpus parents to mutate.  One structural idea keeps both
reproducible: a campaign proceeds in fixed-size **rounds**
(``REPRO_FUZZ_ROUND`` samples each), and the round boundary is the only
place campaign state may change.

* Task derivation for a round — fresh sample or mutation of which corpus
  parent — is decided up front from each sample's own seeded rng and the
  corpus *as of the round start*.
* Samples inside a round are embarrassingly parallel; results are merged
  strictly in sample-index order at the barrier, updating the
  :class:`~repro.fuzz.coverage.CoverageMap` and admitting coverage-novel
  samples to the corpus.

Because neither ``--jobs`` (parallelism inside a slice) nor ``--shards``
(how a round is cut into checkpointable slices) participates in
derivation or merge order, a ``(seed, iterations)`` campaign is
byte-for-byte reproducible across any jobs/shards combination — including
after a kill + ``--resume``.

Corpus entries are derivation **recipes** (``fresh(seed)`` or
``mutate(parent_id, seed)`` chains), not program text: every mutator is a
pure function of ``(parent, seed)``, so a recipe re-materializes the same
genotype in any process.  That keeps checkpoints small and lets workers
receive the whole recipe table instead of pickled IR.  Rendered sources
are content-addressed through :class:`repro.artifacts.store.BlobStore`
(``sha256(source)`` is both the corpus id and the dedup key).

Checkpoints live under ``--checkpoint DIR``::

    campaign.json               identity (seed/iterations/config hash)
    blobs/<aa>/<sha>.blob       every distinct rendered sample
    slices/slice-RRRRR-SS.json  per-slice results, written atomically

``--resume`` validates the identity, replays completed slices through the
same merge logic (no re-execution), and re-runs only the missing ones.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.fuzz.coverage import CoverageMap
from repro.fuzz.engine import (
    _SEED_STRIDE,
    FuzzFailure,
    run_one,
    sample_kind,
)
from repro.fuzz.generators import FuzzConfig, generate_program, random_ir_module
from repro.fuzz.mutate import mutate_ir, mutate_spec
from repro.fuzz.oracles import ORACLES
from repro.fuzz.spec import render_program
from repro.obs import OBS, env_int

#: Samples per round — the determinism barrier (env-tunable).
ROUND_ENV_VAR = "REPRO_FUZZ_ROUND"
DEFAULT_ROUND_SIZE = 64

#: Maximum corpus entries kept eligible as mutation parents.
CORPUS_MAX = 1024

#: Probability that a sample mutates a corpus parent (vs fresh), once the
#: corpus has parents of its kind.  Balanced on purpose: mutants reach
#: shapes the generator's size caps forbid (deep nesting, heavy repair
#: work), while the fresh half keeps the blind generator's shape
#: diversity — all-mutation campaigns lose breadth faster than they gain
#: depth on this coverage map.
_MUTATE_RATE = 0.5
#: Of the mutation picks, how often a MiniC mutation also gets a donor.
_DONOR_RATE = 0.35
#: Parents are drawn from the top of the novelty ranking.
_PARENT_POOL = 16

_CHECKPOINT_VERSION = 1


def round_size_from_env() -> int:
    return env_int(ROUND_ENV_VAR, DEFAULT_ROUND_SIZE, 1)


class CampaignAborted(RuntimeError):
    """Raised by the test-only abort hook after N checkpoint slices."""


@dataclass(frozen=True)
class CampaignOptions:
    """Everything that determines a campaign's byte-identical output.

    ``jobs``, ``shards`` and ``checkpoint_dir`` deliberately do *not*
    appear in :meth:`identity` — they change how the work is scheduled,
    never what it computes.
    """

    seed: int = 0
    iterations: int = 200
    mutate: bool = True
    minimize: bool = True
    fuzz: FuzzConfig = field(default_factory=FuzzConfig)
    round_size: Optional[int] = None
    shards: int = 1
    jobs: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    max_minimize_checks: int = 1500

    def resolved_round(self) -> int:
        return self.round_size or round_size_from_env()

    def identity(self) -> dict:
        """The checkpoint-compatibility record (plus ``shards``, which
        fixes the slice layout on disk)."""
        return {
            "version": _CHECKPOINT_VERSION,
            "seed": self.seed,
            "iterations": self.iterations,
            "mutate": self.mutate,
            "minimize": self.minimize,
            "fuzz": self.fuzz.as_dict(),
            "round_size": self.resolved_round(),
            "corpus_max": CORPUS_MAX,
            "shards": max(1, self.shards),
            "max_minimize_checks": self.max_minimize_checks,
        }


@dataclass
class CampaignReport:
    """Deterministic summary of one campaign, blind or coverage-guided."""

    seed: int
    iterations: int
    mutate: bool
    minic_samples: int = 0
    ir_samples: int = 0
    invalid_samples: int = 0
    mutated_samples: int = 0
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # [FuzzFailure]
    coverage: CoverageMap = field(default_factory=CoverageMap)
    corpus_entries: int = 0
    unique_sources: int = 0
    dedup_hits: int = 0
    rounds: list = field(default_factory=list)
    corpus_paths: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def coverage_keys(self) -> int:
        return len(self.coverage)

    def as_dict(self) -> dict:
        """JSON-stable form; identical for resumed and uninterrupted runs
        regardless of jobs/shards (the byte-identity tests compare this)."""
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "mutate": self.mutate,
            "samples": {
                "minic": self.minic_samples,
                "ir": self.ir_samples,
                "invalid": self.invalid_samples,
                "mutated": self.mutated_samples,
            },
            "oracles": {
                name: dict(self.counters.get(name, {"checked": 0, "failed": 0}))
                for name in ORACLES
            },
            "failures": [
                {
                    "case_id": f.case_id,
                    "kind": f.kind,
                    "seed": f.seed,
                    "failed": list(f.failed),
                    "source": f.source,
                }
                for f in self.failures
            ],
            "coverage": {
                "keys": len(self.coverage),
                "first_seen": self.coverage.as_dict()["first_seen"],
            },
            "corpus": {
                "entries": self.corpus_entries,
                "unique_sources": self.unique_sources,
                "dedup_hits": self.dedup_hits,
            },
            "rounds": list(self.rounds),
        }

    def summary_lines(self) -> list:
        mode = "coverage-guided" if self.mutate else "blind+coverage"
        lines = [
            f"fuzz campaign seed={self.seed} iterations={self.iterations} "
            f"mode={mode} (minic={self.minic_samples}, ir={self.ir_samples}, "
            f"invalid={self.invalid_samples}, mutated={self.mutated_samples})"
        ]
        for name in ORACLES:
            entry = self.counters.get(name, {"checked": 0, "failed": 0})
            lines.append(
                f"oracle {name:14s} checked={entry['checked']} "
                f"failed={entry['failed']}"
            )
        lines.append(
            f"coverage keys={len(self.coverage)} "
            f"corpus={self.corpus_entries} "
            f"unique_sources={self.unique_sources} "
            f"dedup_hits={self.dedup_hits}"
        )
        for entry in self.rounds:
            lines.append(
                f"  round {entry['round']:3d} samples={entry['samples']} "
                f"new_keys={entry['new_keys']} total={entry['coverage']} "
                f"corpus={entry['corpus']}"
            )
        lines.append(f"failures: {len(self.failures)}")
        for failure in self.failures:
            lines.append(
                f"  {failure.case_id} kind={failure.kind} "
                f"seed={failure.seed} oracles={','.join(failure.failed)}"
            )
        for path in self.corpus_paths:
            lines.append(f"  wrote {path}")
        return lines


# -- recipes -----------------------------------------------------------------


def _materialize(recipe: dict, recipes: dict, config: FuzzConfig, memo: dict):
    """Re-derive the genotype a recipe describes (pure, memoized by id)."""
    op = recipe["op"]
    if op == "fresh":
        if recipe["kind"] == "ir":
            return random_ir_module(recipe["seed"])
        return generate_program(recipe["seed"], config)
    parent = _materialize_id(recipe["parent"], recipes, config, memo)
    if recipe["kind"] == "ir":
        return mutate_ir(parent, recipe["seed"])
    donor = None
    if recipe.get("donor"):
        donor = _materialize_id(recipe["donor"], recipes, config, memo)
    return mutate_spec(parent, recipe["seed"], config, donor=donor)


def _materialize_id(corpus_id: str, recipes: dict, config: FuzzConfig,
                    memo: dict):
    if corpus_id in memo:
        return memo[corpus_id]
    genotype = _materialize(recipes[corpus_id], recipes, config, memo)
    memo[corpus_id] = genotype
    return genotype


def _source_of(genotype, kind: str) -> str:
    if kind == "ir":
        from repro.ir import module_to_str

        return module_to_str(genotype)
    return render_program(genotype)


def source_id(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# -- per-task execution (runs in workers) ------------------------------------


def _run_task(task: dict, recipes: dict, config: FuzzConfig, minimize: bool,
              max_checks: int, memo: dict, repair_fn=None) -> dict:
    genotype = _materialize(task["recipe"], recipes, config, memo)
    kwargs = {"module": genotype} if task["kind"] == "ir" else {"spec": genotype}
    result = run_one(
        task["seed"], task["kind"], config,
        minimize=minimize, max_minimize_checks=max_checks,
        repair_fn=repair_fn, **kwargs,
    )
    result["index"] = task["index"]
    # The genotype's own rendering — the corpus/dedup identity.  On a
    # minimized failure ``result["source"]`` is the *shrunk* program.
    result["original_source"] = _source_of(genotype, task["kind"])
    result["mutated"] = task["recipe"]["op"] == "mutate"
    return result


def _campaign_worker(tasks: list, recipes: dict, config_record: dict,
                     minimize: bool, max_checks: int) -> tuple:
    OBS.reset()
    config = FuzzConfig.from_dict(config_record)
    memo: dict = {}
    results = [
        _run_task(task, recipes, config, minimize, max_checks, memo)
        for task in tasks
    ]
    return results, OBS.snapshot()


def _run_slice(tasks: list, recipes: dict, options: CampaignOptions,
               jobs: int, repair_fn=None) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        memo: dict = {}
        return [
            _run_task(task, recipes, options.fuzz, options.minimize,
                      options.max_minimize_checks, memo, repair_fn)
            for task in tasks
        ]
    gc.collect()  # fork-lean, as in artifacts.parallel
    jobs = min(jobs, len(tasks))
    batches = [tasks[i::jobs] for i in range(jobs)]
    ordered: dict = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_campaign_worker, batch, recipes,
                        options.fuzz.as_dict(), options.minimize,
                        options.max_minimize_checks)
            for batch in batches if batch
        ]
        for future in futures:
            worker_results, snapshot = future.result()
            OBS.merge(snapshot)
            for entry in worker_results:
                ordered[entry["index"]] = entry
    return [ordered[task["index"]] for task in tasks]


# -- campaign state ----------------------------------------------------------


class _CampaignState:
    """Everything the round barrier updates, in merge (index) order."""

    def __init__(self, options: CampaignOptions) -> None:
        self.options = options
        self.cover = CoverageMap()
        self.corpus: list = []      # parent pool: {id, kind, new_keys, order}
        self.recipes: dict = {}     # full history: id -> recipe
        self.seen: set = set()      # every source id ever merged
        self.dedup_hits = 0
        self.report = CampaignReport(
            seed=options.seed,
            iterations=options.iterations,
            mutate=options.mutate,
        )
        for name in ORACLES:
            self.report.counters[name] = {"checked": 0, "failed": 0}
        self._order = 0

    def derive_tasks(self, indices: range) -> list:
        options = self.options
        tasks = []
        for index in indices:
            case_seed = options.seed * _SEED_STRIDE + index
            kind = sample_kind(index, options.fuzz)
            recipe = {"op": "fresh", "kind": kind, "seed": case_seed}
            if options.mutate:
                rng = random.Random(case_seed ^ 0xC0FFEE)
                pool = [e for e in self.corpus if e["kind"] == kind]
                if pool and rng.random() < _MUTATE_RATE:
                    ranked = sorted(
                        pool, key=lambda e: (-e["new_keys"], e["order"])
                    )[:_PARENT_POOL]
                    parent = ranked[rng.randrange(len(ranked))]
                    recipe = {
                        "op": "mutate", "kind": kind, "seed": case_seed,
                        "parent": parent["id"],
                    }
                    if kind == "minic" and len(pool) > 1 \
                            and rng.random() < _DONOR_RATE:
                        donor = pool[rng.randrange(len(pool))]
                        if donor["id"] != parent["id"]:
                            recipe["donor"] = donor["id"]
            tasks.append({
                "index": index, "seed": case_seed, "kind": kind,
                "recipe": recipe,
            })
        return tasks

    def merge(self, task: dict, result: dict, blobs) -> int:
        """Fold one sample in (must be called in index order)."""
        report = self.report
        if result["kind"] == "ir":
            report.ir_samples += 1
        else:
            report.minic_samples += 1
        if result.get("mutated"):
            report.mutated_samples += 1

        source = result.get("original_source") or result.get("source", "")
        sid = source_id(source)
        novel_source = sid not in self.seen
        if novel_source:
            self.seen.add(sid)
            if blobs is not None:
                blobs.put(source.encode("utf-8"))
        else:
            self.dedup_hits += 1

        new_keys = self.cover.observe(
            result.get("coverage", ()), result["index"]
        )

        if "invalid" in result:
            report.invalid_samples += 1
            return len(new_keys)

        if novel_source and new_keys:
            self.corpus.append({
                "id": sid,
                "kind": result["kind"],
                "new_keys": len(new_keys),
                "order": self._order,
            })
            self.recipes[sid] = task["recipe"]
            self._order += 1
            if len(self.corpus) > CORPUS_MAX:
                keep = sorted(
                    self.corpus, key=lambda e: (-e["new_keys"], e["order"])
                )[:CORPUS_MAX]
                self.corpus = sorted(keep, key=lambda e: e["order"])

        for name in result["checked"]:
            report.counters[name]["checked"] += 1
        for name in result["failed"]:
            report.counters[name]["failed"] += 1
        if result["failed"]:
            report.failures.append(FuzzFailure(
                seed=result["seed"],
                kind=result["kind"],
                case_id=result["case_id"],
                entry=result["entry"],
                source=result["source"],
                inputs=result["inputs"],
                secret_inputs=result.get("secret_inputs"),
                failed=tuple(result["failed"]),
                report=result.get("report_dict"),
                minimize_checks=result.get("minimize_checks", 0),
            ))
        return len(new_keys)


# -- checkpoints -------------------------------------------------------------


class _Checkpoint:
    """The on-disk campaign journal (identity + blob store + slices)."""

    def __init__(self, root, options: CampaignOptions) -> None:
        self.root = Path(root)
        self.options = options
        self.slices = self.root / "slices"
        from repro.artifacts.store import BlobStore

        self.blobs = BlobStore(self.root / "blobs")

    def _identity_path(self) -> Path:
        return self.root / "campaign.json"

    def prepare(self, resume: bool) -> None:
        identity = self.options.identity()
        path = self._identity_path()
        if path.is_file():
            existing = json.loads(path.read_text())
            if existing != identity:
                raise ValueError(
                    f"checkpoint at {self.root} belongs to a different "
                    "campaign (seed/iterations/config/shards differ); "
                    "pick a fresh --checkpoint directory"
                )
            if not resume:
                # Fresh start requested over an old journal: drop slices.
                shutil.rmtree(self.slices, ignore_errors=True)
        self.root.mkdir(parents=True, exist_ok=True)
        self.slices.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(identity, indent=1, sort_keys=True) + "\n")

    def _slice_path(self, round_index: int, shard: int) -> Path:
        return self.slices / f"slice-{round_index:05d}-{shard:02d}.json"

    def load_slice(self, round_index: int, shard: int) -> Optional[list]:
        path = self._slice_path(round_index, shard)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if record.get("round") != round_index or record.get("shard") != shard:
            return None
        return record["results"]

    def save_slice(self, round_index: int, shard: int, results: list) -> None:
        path = self._slice_path(round_index, shard)
        record = {"round": round_index, "shard": shard, "results": results}
        fd, staging = tempfile.mkstemp(dir=self.slices, prefix=".slice-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.write("\n")
        os.replace(staging, path)
        if OBS.enabled:
            OBS.event(
                "fuzz.checkpoint", round=round_index, shard=shard,
                samples=len(results), path=str(path),
            )
            OBS.counter("fuzz.campaign.checkpoints")


# -- the driver --------------------------------------------------------------


def _partition(tasks: list, shards: int) -> list:
    """Cut a round's tasks into ``shards`` contiguous slices."""
    shards = max(1, shards)
    size = (len(tasks) + shards - 1) // shards
    return [tasks[i * size:(i + 1) * size] for i in range(shards)]


def run_campaign(
    options: Optional[CampaignOptions] = None,
    resume: bool = False,
    store: bool = False,
    corpus_dir=None,
    abort_after_slices: Optional[int] = None,
    repair_fn: Optional[Callable] = None,
    **overrides,
) -> CampaignReport:
    """Run (or resume) one campaign.

    ``store=True`` writes each (minimized) failure into ``corpus_dir``
    (default ``tests/corpus/``).  ``abort_after_slices`` is the
    deterministic kill switch the checkpoint/resume tests use: the run
    raises :class:`CampaignAborted` after writing that many slice
    checkpoints, exactly as if the process had died at a slice boundary.
    ``repair_fn`` injects an alternative repair pipeline; it is test-only,
    stays out of the checkpoint identity, and forces serial execution
    because closures do not cross process boundaries.
    """
    from repro.artifacts.parallel import resolve_jobs

    if options is None:
        options = CampaignOptions(**overrides)
    elif overrides:
        options = dataclasses.replace(options, **overrides)
    jobs = 1 if repair_fn is not None else resolve_jobs(options.jobs)
    shards = max(1, options.shards)
    round_size = options.resolved_round()

    checkpoint = None
    if options.checkpoint_dir:
        checkpoint = _Checkpoint(options.checkpoint_dir, options)
        checkpoint.prepare(resume)

    state = _CampaignState(options)
    blobs = checkpoint.blobs if checkpoint else None
    slices_written = 0

    total_rounds = (options.iterations + round_size - 1) // round_size
    for round_index in range(total_rounds):
        start = round_index * round_size
        stop = min(start + round_size, options.iterations)
        tasks = state.derive_tasks(range(start, stop))
        round_new_keys = 0
        for shard, slice_tasks in enumerate(_partition(tasks, shards)):
            if not slice_tasks:
                continue
            results = (
                checkpoint.load_slice(round_index, shard)
                if checkpoint else None
            )
            if results is None:
                results = _run_slice(
                    slice_tasks, state.recipes, options, jobs, repair_fn
                )
                if checkpoint:
                    checkpoint.save_slice(round_index, shard, results)
                    slices_written += 1
            for task, result in zip(slice_tasks, results):
                round_new_keys += state.merge(task, result, blobs)
            if (abort_after_slices is not None
                    and slices_written >= abort_after_slices):
                raise CampaignAborted(
                    f"aborted after {slices_written} checkpoint slice(s)"
                )
        state.report.rounds.append({
            "round": round_index,
            "samples": stop - start,
            "new_keys": round_new_keys,
            "coverage": len(state.cover),
            "corpus": len(state.corpus),
            "failures": len(state.report.failures),
        })

    report = state.report
    report.coverage = state.cover
    report.corpus_entries = len(state.corpus)
    report.unique_sources = len(state.seen)
    report.dedup_hits = state.dedup_hits

    if OBS.enabled:
        OBS.counter("fuzz.campaign.samples", options.iterations)
        OBS.counter("fuzz.campaign.rounds", total_rounds)
        OBS.counter("fuzz.cov.keys", len(state.cover))
        OBS.counter("fuzz.corpus.entries", len(state.corpus))
        OBS.counter("fuzz.corpus.unique_sources", len(state.seen))
        OBS.counter("fuzz.corpus.dedup_hits", state.dedup_hits)
        OBS.counter("fuzz.campaign.failures", len(report.failures))

    if store and report.failures:
        from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, store_case

        directory = corpus_dir or DEFAULT_CORPUS_DIR
        for failure in report.failures:
            report.corpus_paths.extend(
                str(p) for p in store_case(failure.as_corpus_case(), directory)
            )
    return report
