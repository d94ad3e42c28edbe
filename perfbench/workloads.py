"""The four campaign workloads: seeded inputs, set-up and one campaign.

Each workload is a campaign a user of the package runs from the CLI or
the service, sized as described in ``perfbench/README.md``.  The seed
only reorders or relabels inputs whose oracle digests are pinned in
``oracle.json``, so any seed can be checked without re-running the
oracle and every seed does the same amount of work:

* ``zoo-warm`` / ``dse-grid`` -- the seed shuffles the job order (the
  digest is taken in job order);
* ``dse-search`` -- the seed permutes the values of each swept axis,
  which renumbers the candidates (24 variants);
* ``service-mix`` -- the seed picks which ``batch`` values, out of a
  pinned pool, the clients submit, and when a client re-submits a
  campaign it already completed.

``repro`` is imported inside functions only: the worker takes the
set-up clock before the first import.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

#: The three machines the service accepts by name (the paper's trio).
PAPER_TRIO = ("simba", "popstar", "spacx")

#: ``dse-grid``: 3 x 3 x 2 x 2 = 36 SPACX configurations.
GRID_AXES = {
    "chiplets": (16, 36, 64),
    "pes_per_chiplet": (16, 32, 64),
    "k_granularity": (1, 2),
    "ef_granularity": (1, 2),
}

#: ``dse-search``: 3 x 1 x 2 x 2 = 12 SPACX candidates on paper-suite.
SEARCH_AXES = {
    "chiplets": (16, 36, 64),
    "pes_per_chiplet": (32,),
    "k_granularity": (1, 2),
    "ef_granularity": (1, 2),
}

#: ``service-mix``: every new campaign takes a distinct ``batch`` from
#: this pool, so none hits the cache another one filled.  A run of the
#: benchmark submits far fewer campaigns than the pool holds.
SERVICE_BATCHES = tuple(range(2, 2 + 512))

#: ``service-mix``: closed-loop client threads (one per core of the
#: 2-core host the benchmark was sized on).
SERVICE_CLIENTS = 2

#: ``service-mix``: every tenth submission of a client repeats a
#: campaign it already completed, under another tenant (dedupe attach).
#: A fixed cadence rather than a coin flip keeps the share of these
#: near-free campaigns the same for every seed.
SERVICE_REPEAT_EVERY = 10


def no_span(layer: str):
    return nullcontext()


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed, *salt)))


# ----------------------------------------------------------------------
# Seeded inputs (shared with pin_oracle.py)
# ----------------------------------------------------------------------
def zoo_keys(seed: int) -> list[tuple[str, str]]:
    """``(machine, model)`` jobs of ``zoo-warm``, in seeded order."""
    from repro.models.zoo import EXTENDED_MODELS
    from repro.validate import machine_zoo

    keys = [(m, model) for model in EXTENDED_MODELS for m in machine_zoo()]
    _rng("zoo-warm", seed).shuffle(keys)
    return keys


def grid_configs() -> dict[str, dict]:
    """The 36 ``dse-grid`` configurations by label."""
    configs = {}
    for chiplets, pes, k, ef in itertools.product(*GRID_AXES.values()):
        configs[f"c{chiplets}-p{pes}-k{k}-e{ef}"] = {
            "machine": "spacx",
            "chiplets": chiplets,
            "pes_per_chiplet": pes,
            "k_granularity": k,
            "ef_granularity": ef,
        }
    return configs


def grid_keys(seed: int) -> list[tuple[str, str]]:
    """``(config label, model)`` jobs of ``dse-grid``, in seeded order."""
    from repro.models.zoo import MODELS

    keys = [(label, model) for label in grid_configs() for model in MODELS]
    _rng("dse-grid", seed).shuffle(keys)
    return keys


def _search_label(dims: dict) -> str:
    return ";".join(
        f"{name}={','.join(map(str, dims[name]))}" for name in SEARCH_AXES
    )


def search_space(seed: int) -> tuple[str, dict]:
    """``(variant label, space dict)`` of ``dse-search``."""
    rng = _rng("dse-search", seed)
    dims = {"machine": ["spacx"]}
    for name, values in SEARCH_AXES.items():
        dims[name] = rng.sample(values, len(values))
    return _search_label(dims), dims


def search_variants() -> dict[str, dict]:
    """Every space :func:`search_space` can return, by label."""
    variants = {}
    orders = [
        list(itertools.permutations(values)) for values in SEARCH_AXES.values()
    ]
    for combo in itertools.product(*orders):
        dims = {"machine": ["spacx"]}
        dims.update({name: list(v) for name, v in zip(SEARCH_AXES, combo)})
        variants[_search_label(dims)] = dims
    return variants


def service_campaign(batch: int) -> dict:
    """The sweep document one ``service-mix`` submission posts."""
    from repro.models.zoo import MODELS

    return {
        "kind": "sweep",
        "machines": list(PAPER_TRIO),
        "models": list(MODELS),
        "batch": batch,
    }


def service_plan(seed: int) -> tuple[int, list]:
    """``(warm-up batch, per-client batch lists)`` of ``service-mix``."""
    order = _rng("service-mix", seed).sample(
        SERVICE_BATCHES, len(SERVICE_BATCHES)
    )
    return order[0], [order[1 + c :: SERVICE_CLIENTS] for c in range(SERVICE_CLIENTS)]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def canonical_sha256(payload) -> str:
    """sha256 of sorted-key compact JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def job_digest(result) -> str:
    """Digest of one ``ModelResult`` (serialized through the package)."""
    from repro import serialization

    return canonical_sha256(serialization.model_result_to_dict(result))


def sweep_tree_digest(tree) -> str:
    """Digest of a ``{model: {machine: result dict}}`` tree, in the
    format ``repro.service.protocol.results_digest`` uses."""
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One campaign: its wall time, lanes delivered and verdict."""

    seconds: float
    lanes: int = 0
    failed: bool = False
    #: The campaign completed but its digest differs from the oracle.
    mismatch: bool = False
    #: Service timings of this campaign (``service-mix`` only).
    timings: dict = field(default_factory=dict)
    #: Host-speed factor the worker sets (``reference.py``).
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.seconds * self.scale


class Workload:
    """Base class: set up once, then run campaigns in a closed loop."""

    name = ""
    #: Closed-loop clients, each a thread calling :meth:`campaign`.
    clients = 1
    #: Record queue wait and execution time from the service's status
    #: record after each campaign (set during traced blocks).
    read_status = False

    def __init__(self, seed: int, workdir: Path, oracle: dict):
        self.seed = seed
        self.workdir = workdir
        self.oracle = oracle[self.name]
        #: Opens a benchmark-side span; the worker swaps in the
        #: tracer's during traced blocks.
        self.span = no_span

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> Outcome:
        """The untimed first campaign that ends set-up."""
        return self.campaign()

    def campaign(self, client: int = 0) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _LibrarySweep(Workload):
    """A sweep campaign through a fresh ``SweepRunner`` and cache."""

    #: The disk tier of each campaign's cache (``None``: memory only).
    cache_dir = None

    def campaign(self, client: int = 0) -> Outcome:
        from repro.core.batch import ResultCache, SweepJobError, SweepRunner
        from repro.errors import ReproError

        runner = SweepRunner(
            max_workers=1, cache=ResultCache(cache_dir=self.cache_dir)
        )
        start = time.perf_counter()
        try:
            results = runner.run(self.jobs)
        except (ReproError, SweepJobError):
            return Outcome(time.perf_counter() - start, failed=True)
        finally:
            runner.close()
        if runner.stopped or any(result is None for result in results):
            return Outcome(time.perf_counter() - start, failed=True)
        lanes = 0
        with self.span("materialize"):
            for result in results:
                for lane in result.layers:
                    lane.computation_time_s  # first read materializes a grid lane
                lanes += len(result.layers)
        with self.span("digest"):
            mismatch = [job_digest(result) for result in results] != self.expected
        return Outcome(
            time.perf_counter() - start, lanes, failed=mismatch, mismatch=mismatch
        )


class ZooWarm(_LibrarySweep):
    """Extended zoo x machine zoo, re-run over a filled disk cache."""

    name = "zoo-warm"

    def setup(self) -> None:
        from repro.core.batch import ResultCache, SweepJob, SweepRunner
        from repro.models.zoo import get_model
        from repro.validate import machine_zoo

        zoo = machine_zoo()
        simulators = {name: factory() for name, factory in zoo.items()}
        keys = zoo_keys(self.seed)
        self.jobs = [SweepJob(simulators[m], get_model(model)) for m, model in keys]
        self.expected = [self.oracle[f"{m}/{model}"] for m, model in keys]
        self.cache_dir = self.workdir / "cache"
        # Cold run that fills the cache; a wrong entry written here
        # shows as a digest mismatch in every later campaign.
        SweepRunner(
            max_workers=1, cache=ResultCache(cache_dir=self.cache_dir)
        ).run(self.jobs)


class DseGrid(_LibrarySweep):
    """36 SPACX configurations x the paper's four models, memory cache."""

    name = "dse-grid"

    def setup(self) -> None:
        from repro.core.batch import SweepJob
        from repro.dse.space import build_simulator
        from repro.models.zoo import get_model

        simulators = {
            label: build_simulator(config)
            for label, config in grid_configs().items()
        }
        keys = grid_keys(self.seed)
        self.jobs = [
            SweepJob(simulators[label], get_model(model)) for label, model in keys
        ]
        self.expected = [self.oracle[f"{label}/{model}"] for label, model in keys]


class DseSearch(Workload):
    """``repro search`` defaults (pruned, edp, physics) over 12 SPACX
    candidates on the paper suite."""

    name = "dse-search"

    def setup(self) -> None:
        from repro.dse.space import SearchSpace, paper_suite

        label, dims = search_space(self.seed)
        self.space = SearchSpace.from_dict(dims)
        self.expected = self.oracle[label]
        self.n_layers = len(paper_suite().all_layers)

    def campaign(self, client: int = 0) -> Outcome:
        from repro.core.batch import ResultCache, SweepJobError, SweepRunner
        from repro.dse.search import SearchEngine
        from repro.errors import ReproError

        runner = SweepRunner(max_workers=1, cache=ResultCache())
        engine = SearchEngine(
            self.space, objective="edp", validation="physics", runner=runner
        )
        start = time.perf_counter()
        try:
            result = engine.search(strategy="pruned")
        except (ReproError, SweepJobError):
            return Outcome(time.perf_counter() - start, failed=True)
        finally:
            runner.close()
        if runner.stopped or result.failures:
            return Outcome(time.perf_counter() - start, failed=True)
        with self.span("digest"):
            mismatch = canonical_sha256(result.to_dict()) != self.expected
        return Outcome(
            time.perf_counter() - start,
            result.n_evaluated * self.n_layers,
            failed=mismatch,
            mismatch=mismatch,
        )


class ServiceMix(Workload):
    """Closed-loop HTTP clients against an in-process ``repro serve``."""

    name = "service-mix"
    clients = SERVICE_CLIENTS

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.scheduler import CampaignService
        from repro.service.server import ServiceHTTPServer
        from repro.service.tenants import TenantQuota, TenantRegistry

        # The `repro serve` defaults: 2 runner slots, --workers unset,
        # per-tenant quotas of 16 active campaigns / 4096 jobs.
        self.service = CampaignService(
            self.workdir / "service",
            runner_slots=2,
            workers=None,
            registry=TenantRegistry(
                default_quota=TenantQuota(
                    max_active=16, max_jobs_per_campaign=4096
                )
            ),
        )
        self.server = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        self.service.start()
        self.http_thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="perfbench-http",
            daemon=True,
        )
        self.http_thread.start()
        url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.http_clients = [
            (
                ServiceClient(url, tenant=f"client-{c}"),
                ServiceClient(url, tenant=f"guest-{c}"),
            )
            for c in range(SERVICE_CLIENTS)
        ]
        self.warmup_batch, self.batches = service_plan(self.seed)
        self.completed: list[list[int]] = [[] for _ in range(SERVICE_CLIENTS)]
        self.picks = [
            _rng("service-mix", self.seed, "client", c)
            for c in range(SERVICE_CLIENTS)
        ]
        self.submitted = [0] * SERVICE_CLIENTS
        self.fresh = [0] * SERVICE_CLIENTS

    def close(self) -> None:
        self.service.shutdown(timeout_s=30.0)
        self.server.shutdown()
        self.server.server_close()
        self.http_thread.join(timeout=30.0)

    def warmup(self) -> Outcome:
        return self._submit(self.http_clients[0][0], self.warmup_batch)

    def campaign(self, client: int = 0) -> Outcome:
        """The next submission of one client's schedule."""
        done = self.completed[client]
        self.submitted[client] += 1
        if done and self.submitted[client] % SERVICE_REPEAT_EVERY == 0:
            batch = done[self.picks[client].randrange(len(done))]
            return self._submit(self.http_clients[client][1], batch)
        batch = self.batches[client][self.fresh[client]]
        self.fresh[client] += 1
        outcome = self._submit(self.http_clients[client][0], batch)
        if not outcome.failed:
            done.append(batch)
        return outcome

    def _submit(self, client, batch: int) -> Outcome:
        from repro.errors import ReproError

        expected = self.oracle[str(batch)]
        start = time.perf_counter()
        timings = {}
        try:
            ticket = client.submit(service_campaign(batch))
            timings["http.submit_s"] = time.perf_counter() - start
            sid = ticket["submission"]
            terminal = None
            for event in client.stream(sid):
                if event.get("event") == "terminal":
                    terminal = event
            if terminal is None or terminal["state"] != "done":
                return Outcome(time.perf_counter() - start, failed=True)
            asked = time.perf_counter()
            payload = client.results(sid)
            timings["http.results_s"] = time.perf_counter() - asked
        except ReproError:
            return Outcome(time.perf_counter() - start, failed=True)
        with self.span("digest"):
            results = payload.get("results", {})
            mismatch = (
                payload.get("digest") != expected
                or sweep_tree_digest(results) != expected
            )
        lanes = sum(
            len(result["layer_sequence"])
            for per_machine in results.values()
            for result in per_machine.values()
        )
        seconds = time.perf_counter() - start
        if self.read_status and not ticket["deduplicated"]:
            status = self.service.status(sid)
            timings["queue.wait_s"] = status["started_s"] - status["created_s"]
            timings["scheduler.exec_s"] = (
                status["finished_s"] - status["started_s"]
            )
        return Outcome(
            seconds, lanes, failed=mismatch, mismatch=mismatch, timings=timings
        )


WORKLOADS = {
    cls.name: cls for cls in (ZooWarm, DseGrid, DseSearch, ServiceMix)
}
