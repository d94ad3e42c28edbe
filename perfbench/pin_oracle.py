"""Pin the scalar-oracle digests every benchmark campaign is checked against.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin_oracle.py

Every input any seed can produce is evaluated once through the scalar
``Simulator`` (``vectorize=False``, ``exec_plan="serial"``, no cache)
and its digest written to ``perfbench/oracle.json``:

* ``zoo-warm`` and ``dse-grid``: one digest per ``(machine, model)``
  job; a campaign matches when its job-ordered digests equal these in
  the seeded order.  ``dse-grid`` cannot use ``results_digest``: it
  keys results by ``spec.name``, and all 36 configurations are named
  ``SPACX``;
* ``dse-search``: the digest of ``SearchResult.to_dict()`` for each of
  the 24 orderings of the swept axes;
* ``service-mix``: the ``results_digest`` format over the sweep tree of
  every ``batch`` in the pool.

Re-pin only when the simulator's results are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

import workloads  # noqa: E402


def scalar_runner():
    from repro.core.batch import NullCache, SweepRunner

    return SweepRunner(
        max_workers=1, cache=NullCache(), vectorize=False, exec_plan="serial"
    )


def pin_jobs(simulators: dict, keys: list) -> dict:
    from repro.core.batch import SweepJob
    from repro.models.zoo import get_model

    jobs = [SweepJob(simulators[m], get_model(model)) for m, model in keys]
    results = scalar_runner().run(jobs)
    return {
        f"{m}/{model}": workloads.job_digest(result)
        for (m, model), result in zip(keys, results)
    }


def pin_search() -> dict:
    from repro.dse.search import SearchEngine
    from repro.dse.space import SearchSpace

    pins, work = {}, set()
    for label, dims in workloads.search_variants().items():
        engine = SearchEngine(
            SearchSpace.from_dict(dims),
            objective="edp",
            validation="physics",
            runner=scalar_runner(),
            vectorize=False,
        )
        result = engine.search(strategy="pruned")
        pins[label] = workloads.canonical_sha256(result.to_dict())
        work.add((result.n_evaluated, result.n_pruned, result.n_rejected))
    if len(work) != 1:
        raise SystemExit(f"search variants do different work: {sorted(work)}")
    print(f"dse-search: (evaluated, pruned, rejected) = {work.pop()}")
    return pins


def pin_service() -> dict:
    from repro import serialization
    from repro.service.protocol import CampaignSpec

    pins = {}
    for batch in workloads.SERVICE_BATCHES:
        spec = CampaignSpec.from_dict(workloads.service_campaign(batch))
        jobs, labels = spec.build_sweep_jobs()
        tree: dict = {}
        for (model, machine), result in zip(labels, scalar_runner().run(jobs)):
            tree.setdefault(model, {})[machine] = (
                serialization.model_result_to_dict(result)
            )
        pins[str(batch)] = workloads.sweep_tree_digest(tree)
    return pins


def main() -> int:
    from repro.dse.space import build_simulator
    from repro.validate import machine_zoo

    zoo = {name: factory() for name, factory in machine_zoo().items()}
    grid = {
        label: build_simulator(config)
        for label, config in workloads.grid_configs().items()
    }
    oracle = {
        "zoo-warm": pin_jobs(zoo, sorted(workloads.zoo_keys(0))),
        "dse-grid": pin_jobs(grid, sorted(workloads.grid_keys(0))),
        "dse-search": pin_search(),
        "service-mix": pin_service(),
    }
    with open(workloads.ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(oracle, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, pins in oracle.items():
        print(f"{name}: {len(pins)} digest(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
