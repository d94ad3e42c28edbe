"""The design-space search engine.

One engine, three strategies and two ways to score a candidate,
chosen from what the engine can observe of its runner:

* *lane-free* -- when the runner would persist nothing and stop for
  nothing (vectorized, no budget, no manifest, no disk tier), the
  scorers of one :func:`repro.dse.bounds.frontier_pass` score
  candidates straight from the kernel's columns: the three numbers a
  score reads, bit-identical to reading a ``ModelResult``, with no
  ``LayerResult`` built and no runner call;
* *through the* :class:`~repro.core.batch.SweepRunner` -- otherwise,
  and for every evaluation holding a candidate the grid cannot score
  (a declined machine, an uncovered layer, an empty workload, a lane
  the array audit flags, a kernel fault).  Such a search inherits
  process parallelism (the persistent warm-worker pool of
  :mod:`repro.core.pool`), the content-addressed result cache,
  retries/timeouts, campaign resume, budgets and strict-mode invariant
  auditing without any code of its own.  Only this route can fail a
  candidate.

The strategies:

* ``exhaustive`` -- evaluate every feasible candidate (ground truth);
* ``pruned`` -- branch-and-bound: candidates are ordered by their
  admissible lower bound (:mod:`repro.dse.bounds`) and evaluated in
  runner-sized chunks; once the incumbent (best value seen) drops
  below the next bound, everything remaining is pruned and never
  reported as evaluated.  Because the bounds are admissible and the
  tie-break (objective value, candidate index) matches the exhaustive
  path exactly, the argmin is **bit-identical** to exhaustive search
  -- only the evaluation count differs.  Every bound comes from one
  :func:`~repro.dse.bounds.frontier_pass` over the frontier, whatever
  the runner; lane-free, the same pass also yields the scores, and the
  chunked walk reduces a candidate's score only when it reaches the
  candidate: a pruned candidate costs its share of the vectorised
  pass, never a reduction;
* ``halving`` -- successive halving: rungs evaluate survivors on
  growing *prefixes* of the workload's unique layers and keep the
  better half, then the finalists run the full workload.  A documented
  heuristic (layer prefixes are proxies, so no optimality guarantee),
  but cache-friendly: proxy layers are shared with the full workload,
  so the final rung's cache is already warm.

Feasibility is filtered *before* simulation in three selectable
modes: ``"none"`` (structural :meth:`SearchSpace.diagnose` only --
the divisibility rules that prevent the topology's silent ``min()``
clamp), ``"structural"`` (plus :func:`repro.validate.validate_spec`
errors) and ``"physics"`` (plus the full
:func:`repro.validate.validate_simulator` physics audit -- Eq. 2 link
budget, WDM density).  Simulators are memoised per machine-shaping
key, so a space sweeping models or batches over one machine builds
that machine once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.batch import SweepJob, SweepRunner
from ..core.budget import global_stop
from ..core.layer import LayerSet
from ..core.metrics import ModelResult
from ..core.simulator import Simulator
from ..errors import ConfigError
from .bounds import frontier_bounds, frontier_pass, static_network_power_w
from .frontier import ParetoFrontier, build_frontier
from .space import Candidate, SearchSpace, build_simulator, resolve_workload

__all__ = [
    "OBJECTIVES",
    "STRATEGIES",
    "VALIDATION_MODES",
    "CandidateScore",
    "PrunedCandidate",
    "RejectedCandidate",
    "SearchEngine",
    "SearchResult",
]

#: Scalar objectives a search can minimise.
OBJECTIVES = ("execution_time", "energy", "edp", "static_power")

#: Search strategies.
STRATEGIES = ("exhaustive", "pruned", "halving")

#: Pre-simulation feasibility filters, weakest to strongest.
VALIDATION_MODES = ("none", "structural", "physics")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CandidateScore:
    """Simulation outcome of one candidate, ready for ranking."""

    index: int
    config: tuple[tuple[str, Any], ...]
    execution_time_s: float
    energy_mj: float
    static_network_power_w: float | None
    mean_utilization: float

    @property
    def edp(self) -> float:
        """Energy-delay product (mJ * s)."""
        return self.energy_mj * self.execution_time_s

    def objective(self, name: str) -> float:
        """The scalar this candidate is ranked by."""
        if name == "execution_time":
            return self.execution_time_s
        if name == "energy":
            return self.energy_mj
        if name == "edp":
            return self.edp
        if name == "static_power":
            if self.static_network_power_w is None:
                raise ConfigError(
                    f"candidate {dict(self.config)} has no static network "
                    "power model; the static_power objective needs a "
                    "photonic machine"
                )
            return self.static_network_power_w
        raise ConfigError(
            f"unknown objective {name!r}; choose from {OBJECTIVES}"
        )

    def config_dict(self) -> dict[str, Any]:
        """The configuration as a plain dict."""
        return dict(self.config)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "index": self.index,
            "config": self.config_dict(),
            "execution_time_s": self.execution_time_s,
            "energy_mj": self.energy_mj,
            "edp": self.edp,
            "static_network_power_w": self.static_network_power_w,
            "mean_utilization": self.mean_utilization,
        }


@dataclass(frozen=True)
class RejectedCandidate:
    """A candidate filtered out before simulation, with the findings."""

    index: int
    config: tuple[tuple[str, Any], ...]
    diagnostics: tuple

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "config": dict(self.config),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


@dataclass(frozen=True)
class PrunedCandidate:
    """A feasible candidate eliminated by its admissible lower bound."""

    index: int
    config: tuple[tuple[str, Any], ...]
    lower_bound: float
    incumbent: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "config": dict(self.config),
            "lower_bound": self.lower_bound,
            "incumbent": self.incumbent,
        }


@dataclass
class SearchResult:
    """Everything one :meth:`SearchEngine.search` call produced."""

    objective: str
    strategy: str
    validation: str
    n_candidates: int
    evaluated: list[CandidateScore] = field(default_factory=list)
    rejected: list[RejectedCandidate] = field(default_factory=list)
    pruned: list[PrunedCandidate] = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: Proxy-workload evaluations spent by the halving strategy
    #: (full-workload evaluations are ``n_evaluated``).
    n_proxy_evaluated: int = 0
    #: The runner's :class:`~repro.core.budget.CampaignOutcome` for the
    #: last evaluation this search sent through it (``None`` when every
    #: candidate was scored lane-free).  When ``outcome.stopped`` the
    #: search ended early under a budget or a drain signal and ``best``
    #: reflects only what was evaluated.
    outcome: Any = None

    # -- accounting -----------------------------------------------------
    @property
    def n_feasible(self) -> int:
        """Candidates that survived the pre-simulation filters."""
        return self.n_candidates - len(self.rejected)

    @property
    def n_evaluated(self) -> int:
        """Candidates dispatched to the simulator on the full workload."""
        return len(self.evaluated) + len(self.failures)

    @property
    def n_pruned(self) -> int:
        return len(self.pruned)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    # -- answers --------------------------------------------------------
    @property
    def best(self) -> CandidateScore | None:
        """The optimum: min objective value, candidate index as the
        tie-break -- the exact ordering every strategy shares."""
        if not self.evaluated:
            return None
        return min(
            self.evaluated, key=lambda s: (s.objective(self.objective), s.index)
        )

    def ranked(self) -> list[CandidateScore]:
        """Evaluated candidates, best first (deterministic)."""
        return sorted(
            self.evaluated,
            key=lambda s: (s.objective(self.objective), s.index),
        )

    def frontier(
        self, objectives: tuple[str, ...] = ("execution_time", "energy")
    ) -> ParetoFrontier:
        """Multi-objective view over everything that was evaluated."""
        return build_frontier(self.ranked(), objectives)

    def to_dict(self, top: int | None = None) -> dict[str, Any]:
        """JSON-ready summary (schema checked in CI)."""
        ranked = self.ranked()
        if top is not None:
            ranked = ranked[:top]
        best = self.best
        return {
            "ok": best is not None,
            "stopped": (
                None
                if self.outcome is None
                else self.outcome.stop_reason
            ),
            "objective": self.objective,
            "strategy": self.strategy,
            "validation": self.validation,
            "n_candidates": self.n_candidates,
            "n_feasible": self.n_feasible,
            "n_evaluated": self.n_evaluated,
            "n_proxy_evaluated": self.n_proxy_evaluated,
            "n_pruned": self.n_pruned,
            "n_rejected": self.n_rejected,
            "best": None if best is None else best.to_dict(),
            "evaluated": [s.to_dict() for s in ranked],
            "pruned": [p.to_dict() for p in self.pruned],
            "rejected": [r.to_dict() for r in self.rejected],
            "failures": [
                {
                    "index": f.index,
                    "model": f.model,
                    "accelerator": f.accelerator,
                    "error_type": f.error_type,
                    "message": f.message,
                }
                for f in self.failures
            ],
        }


@dataclass(frozen=True)
class _Entry:
    """One feasible candidate, realised and ready to run."""

    candidate: Candidate
    simulator: Simulator
    workload: LayerSet


class SearchEngine:
    """Searches a :class:`SearchSpace` for the best configuration."""

    def __init__(
        self,
        space: SearchSpace,
        *,
        objective: str = "edp",
        workload: LayerSet | None = None,
        validation: str = "physics",
        simulator_factory: Callable[[dict], Simulator] | None = None,
        runner: SweepRunner | None = None,
        layer_by_layer: bool = False,
        vectorize: bool | None = None,
    ):
        if objective not in OBJECTIVES:
            raise ConfigError(
                f"unknown objective {objective!r}; choose from {OBJECTIVES}"
            )
        if validation not in VALIDATION_MODES:
            raise ConfigError(
                f"unknown validation mode {validation!r}; "
                f"choose from {VALIDATION_MODES}"
            )
        self.space = space
        self.objective = objective
        self.workload = workload
        self.validation = validation
        self.simulator_factory = simulator_factory or build_simulator
        #: The engine owns (and is responsible for closing) the runner
        #: only when it built one itself.
        self._owns_runner = runner is None
        #: ``vectorize=False`` builds the engine's runner in scalar
        #: oracle mode; a caller-built runner keeps its own mode, so a
        #: conflicting request fails instead of being ignored.
        if runner is None:
            runner = SweepRunner(vectorize=vectorize)
        elif vectorize is not None and bool(vectorize) != runner.vectorize:
            raise ConfigError(
                f"vectorize={vectorize} conflicts with the given runner "
                f"(vectorize={runner.vectorize})"
            )
        self.runner = runner
        self.layer_by_layer = layer_by_layer

    def close(self) -> None:
        """Release the engine's warm-worker pool (engine-built only).

        The ``pruned`` strategy evaluates candidates in chunks through
        repeated :meth:`SweepRunner.run` calls; under the default
        warm-worker pool those chunks share one set of long-lived
        workers, so the pool is only worth tearing down when the whole
        search session is over.  A runner passed in by the caller is
        the caller's to close.
        """
        if self._owns_runner:
            self.runner.close()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- preparation ----------------------------------------------------
    def _prepare(
        self, result: SearchResult
    ) -> list[_Entry]:
        """Filter candidates, realise survivors, memoise simulators."""
        from ..validate import validate_simulator, validate_spec

        entries: list[_Entry] = []
        simulators: dict[tuple, Simulator] = {}
        checked: dict[tuple, tuple] = {}  # machine-key -> error diagnostics
        for candidate in self.space.candidates():
            report = self.space.diagnose(candidate.config)
            if report.errors:
                result.rejected.append(
                    RejectedCandidate(
                        index=candidate.index,
                        config=candidate.key,
                        diagnostics=tuple(report.errors),
                    )
                )
                continue
            machine_key = tuple(
                (k, v)
                for k, v in sorted(candidate.config.items())
                if k not in ("model", "batch")
            )
            simulator = simulators.get(machine_key)
            if simulator is None and machine_key not in checked:
                try:
                    simulator = self.simulator_factory(dict(candidate.config))
                except ConfigError as exc:
                    checked[machine_key] = (
                        _construct_diagnostic(candidate, exc),
                    )
                else:
                    errors: tuple = ()
                    if self.validation == "structural":
                        errors = tuple(validate_spec(simulator.spec).errors)
                    elif self.validation == "physics":
                        errors = tuple(
                            validate_simulator(simulator).errors
                        )
                    checked[machine_key] = errors
                    if not errors:
                        simulators[machine_key] = simulator
            errors = checked.get(machine_key, ())
            if errors:
                result.rejected.append(
                    RejectedCandidate(
                        index=candidate.index,
                        config=candidate.key,
                        diagnostics=errors,
                    )
                )
                continue
            workload = (
                self.workload
                if self.workload is not None
                and "model" not in candidate.config
                and "batch" not in candidate.config
                else resolve_workload(candidate.config)
            )
            entries.append(
                _Entry(
                    candidate=candidate,
                    simulator=simulators[machine_key],
                    workload=workload,
                )
            )
        return entries

    # -- evaluation -----------------------------------------------------
    def _lane_free(self) -> bool:
        """Whether candidates may be scored from the grid's columns:
        only through a runner that would persist nothing and stop for
        nothing -- vectorized, no budget, no manifest and no disk tier
        (a repeat search must still be served from the shards)."""
        runner = self.runner
        return (
            runner.vectorize
            and runner.budget is None
            and runner.manifest is None
            and getattr(runner.cache, "cache_dir", None) is None
        )

    def _evaluate(
        self,
        entries: list[_Entry],
        result: SearchResult,
        workloads: list[LayerSet] | None = None,
        *,
        record: bool = True,
        scorers: list | None = None,
    ) -> list[CandidateScore | None]:
        """Score entries from the grid's columns when every one of them
        has a scorer that answers, otherwise all of them through the
        sweep runner in one ``runner.run`` call, exactly as without the
        lane-free route.

        ``workloads`` overrides per-entry workloads (the halving
        strategy's proxy rungs); ``record=False`` keeps proxy scores
        out of ``result.evaluated``.  ``scorers`` passes the entries'
        :func:`~repro.dse.bounds.frontier_pass` scorers when the caller
        made the pass (the pruned strategy bounds its whole frontier in
        one); otherwise a lane-free engine makes one here, and any
        other makes none.  Only a runner call can fail a candidate or
        set ``result.outcome``.
        """
        if not entries:
            return []
        if workloads is None:
            workloads = [entry.workload for entry in entries]
        if scorers is None and self._lane_free():
            _, scorers = frontier_pass(
                [
                    (entry.simulator, workload)
                    for entry, workload in zip(entries, workloads)
                ],
                self.objective,
                layer_by_layer=self.layer_by_layer,
            )
        scores = None
        if (
            scorers is not None
            and not self.runner.stopped
            and global_stop() is None
        ):
            scores = self._reduce(entries, scorers)
        if scores is None:
            jobs = [
                SweepJob(
                    simulator=entry.simulator,
                    model=workload,
                    layer_by_layer=self.layer_by_layer,
                )
                for entry, workload in zip(entries, workloads)
            ]
            outputs = self.runner.run(jobs)
            result.outcome = self.runner.outcome
            if record:
                result.failures.extend(self.runner.failures)
            scores = [
                None if output is None else self._score(entry, output)
                for entry, output in zip(entries, outputs)
            ]
        if record:
            result.evaluated.extend(s for s in scores if s is not None)
        return scores

    def _reduce(self, entries: list[_Entry], scorers: list) -> list | None:
        """The entries' scores from their grid scorers, or ``None`` when
        one of them has no scorer, declines (a lane the array audit
        flags) or raises: the runner then evaluates them all."""
        if any(scorer is None for scorer in scorers):
            return None
        scores = []
        for entry, scorer in zip(entries, scorers):
            try:
                triple = scorer()
            except Exception as exc:
                # The runner meets the same fault and reports it.
                logger.warning("lane-free scoring declined: %r", exc)
                return None
            if triple is None:
                return None
            scores.append(self._candidate_score(entry, *triple))
        return scores

    def _score(self, entry: _Entry, output: ModelResult) -> CandidateScore:
        params = entry.simulator.spec.mapping_parameters()
        utilizations = [
            r.mapping.utilization(params) for r in output.layers
        ]
        return self._candidate_score(
            entry,
            output.execution_time_s,
            output.energy.total_mj,
            sum(utilizations) / len(utilizations) if utilizations else 0.0,
        )

    @staticmethod
    def _candidate_score(
        entry: _Entry,
        execution_time_s: float,
        energy_mj: float,
        mean_utilization: float,
    ) -> CandidateScore:
        return CandidateScore(
            index=entry.candidate.index,
            config=entry.candidate.key,
            execution_time_s=execution_time_s,
            energy_mj=energy_mj,
            static_network_power_w=static_network_power_w(entry.simulator),
            mean_utilization=mean_utilization,
        )

    # -- strategies -----------------------------------------------------
    def search(self, strategy: str = "pruned") -> SearchResult:
        """Run one search; see the module docstring for the strategies."""
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
        result = SearchResult(
            objective=self.objective,
            strategy=strategy,
            validation=self.validation,
            n_candidates=len(self.space),
        )
        entries = self._prepare(result)
        if strategy == "exhaustive":
            self._evaluate(entries, result)
        elif strategy == "pruned":
            self._search_pruned(entries, result)
        else:
            self._search_halving(entries, result)
        return result

    def _search_pruned(
        self, entries: list[_Entry], result: SearchResult
    ) -> None:
        """Branch-and-bound over bound-sorted candidates.

        Admissibility makes this exact: for the true optimum ``c*``,
        ``bound(c*) <= value(c*) <= incumbent`` at every step, so
        ``c*`` is never pruned (the cut is strictly ``bound >
        incumbent``); value-ties with the incumbent are still
        evaluated, so the (value, index) tie-break sees the same set
        of minimisers exhaustive search would.
        """
        # One frontier pass bounds every entry, bit-identically to
        # per-entry objective_lower_bound() calls, so the bound-sorted
        # order -- and every prune decision -- does not depend on the
        # runner.  Lane-free, the same pass scores: the walk reduces a
        # score only when it reaches the entry, and an entry without a
        # scorer runs, with its chunk, through the runner.
        pairs = [(entry.simulator, entry.workload) for entry in entries]
        if self._lane_free():
            bounds, scorers = frontier_pass(
                pairs, self.objective, layer_by_layer=self.layer_by_layer
            )
        else:
            bounds = frontier_bounds(
                pairs, self.objective, layer_by_layer=self.layer_by_layer
            )
            scorers = [None] * len(entries)
        order = sorted(
            (
                (bound, e.candidate.index, e, scorer)
                for bound, e, scorer in zip(bounds, entries, scorers)
            ),
            key=lambda t: (t[0], t[1]),
        )
        chunk = max(1, self.runner.max_workers)
        incumbent = float("inf")
        i = 0
        while i < len(order):
            take: list[_Entry] = []
            ready: list = []
            while i < len(order) and len(take) < chunk:
                bound, _, entry, scorer = order[i]
                if bound > incumbent:
                    break
                take.append(entry)
                ready.append(scorer)
                i += 1
            if not take:
                break
            for score in self._evaluate(take, result, scorers=ready):
                if score is not None:
                    incumbent = min(
                        incumbent, score.objective(self.objective)
                    )
            if self.runner.stopped:
                # Budget/signal stop: the remainder was never bounded
                # out, so it is *skipped*, not pruned -- leave it out of
                # ``result.pruned`` and let ``result.outcome`` explain
                # the shortfall.
                return
        for bound, _, entry, _ in order[i:]:
            result.pruned.append(
                PrunedCandidate(
                    index=entry.candidate.index,
                    config=entry.candidate.key,
                    lower_bound=bound,
                    incumbent=incumbent,
                )
            )
        result.pruned.sort(key=lambda p: p.index)

    def _search_halving(
        self, entries: list[_Entry], result: SearchResult
    ) -> None:
        """Successive halving on growing layer-prefix proxies.

        Rung ``r`` evaluates the survivors on the first
        ``ceil(n_unique / 2**(rungs - r))`` unique layers of their
        workload and keeps the better half (by proxy objective value,
        index tie-break); the finalists run the full workload.  The
        proxy layers are a subset of the full workload's, so the final
        evaluation starts from a warm cache.  Heuristic: a layer
        prefix is a biased sample, so -- unlike ``pruned`` -- there is
        no optimality guarantee.
        """
        survivors = sorted(entries, key=lambda e: e.candidate.index)
        rungs = 0
        while (len(survivors) >> rungs) > 2:
            rungs += 1
        for rung in range(rungs):
            if len(survivors) <= 2:
                break
            shrink = 2 ** (rungs - rung)
            proxies = [
                _layer_prefix(e.workload, shrink, rung) for e in survivors
            ]
            scores = self._evaluate(
                survivors, result, workloads=proxies, record=False
            )
            result.n_proxy_evaluated += len(survivors)
            if self.runner.stopped:
                return
            scored = [
                (s.objective(self.objective), s.index, e)
                for s, e in zip(scores, survivors)
                if s is not None
            ]
            scored.sort(key=lambda t: (t[0], t[1]))
            keep = max(2, (len(scored) + 1) // 2)
            survivors = [e for _, _, e in scored[:keep]]
            survivors.sort(key=lambda e: e.candidate.index)
        self._evaluate(survivors, result)


def _layer_prefix(workload: LayerSet, shrink: int, rung: int) -> LayerSet:
    """The first ``ceil(n / shrink)`` unique layers as a proxy set."""
    unique = workload.unique_layers
    n = max(1, (len(unique) + shrink - 1) // shrink)
    return LayerSet(f"{workload.name}#r{rung}", unique[:n])


def _construct_diagnostic(candidate: Candidate, exc: ConfigError):
    from ..validate import SEVERITY_ERROR, Diagnostic

    return Diagnostic(
        code="DSE-CONSTRUCT",
        severity=SEVERITY_ERROR,
        message=f"simulator construction failed: {exc}",
        subject=", ".join(f"{k}={v}" for k, v in candidate.key),
        hint="fix the configuration or loosen the space",
    )
