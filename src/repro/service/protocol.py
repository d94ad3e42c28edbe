"""The service wire protocol: campaign specs, ids and result digests.

A campaign submission is a small JSON document::

    {"kind": "sweep",
     "machines": ["spacx", "simba"],
     "models": ["MobileNetV2"],
     "layer_by_layer": false,
     "batch": 1,
     "budget": {"deadline_s": 600}}

:func:`CampaignSpec.from_dict` validates it against the registry of
known machines/models/presets and **normalizes** it -- defaults are
filled in, unknown keys rejected -- so that two submissions that mean
the same campaign serialize to the same canonical JSON.  The spec's
:attr:`~CampaignSpec.content_id` (sha256 of that canonical form) is
what the scheduler dedupes on: identical campaigns from different
tenants collapse onto one execution, and the execution id doubles as
the on-disk campaign directory name, so a restarted server finds the
matching manifest by construction.

:func:`results_digest` is the same canonical content digest the
golden-regression suite pins (sorted-keys JSON of the
:func:`repro.serialization.model_result_to_dict` tree) -- the service
returns it with every completed sweep so clients can assert
byte-equivalence against a direct :class:`SweepRunner` run without
downloading the full result payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import ConfigError

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignSpec",
    "canonical_json",
    "encode_results",
    "results_digest",
]

#: Campaign kinds the service executes.
CAMPAIGN_KINDS = ("sweep", "faults", "search")

#: machine name -> simulator builder, resolved lazily so importing the
#: protocol module (e.g. from the thin client) stays cheap.
_MACHINE_NAMES = ("simba", "popstar", "spacx")


def machine_builder(name: str):
    """Simulator factory for a machine name (lazy heavy imports)."""
    if name == "spacx":
        from ..spacx.architecture import spacx_simulator

        return spacx_simulator
    if name == "simba":
        from ..baselines.simba import simba_simulator

        return simba_simulator
    if name == "popstar":
        from ..baselines.popstar import popstar_simulator

        return popstar_simulator
    raise ConfigError(
        f"unknown machine {name!r}; available: {list(_MACHINE_NAMES)}"
    )


def canonical_json(payload: Any) -> str:
    """The one canonical serialization used for every digest."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_results(
    results: Mapping[str, Mapping[str, Any]],
) -> tuple[bytes, str]:
    """Canonical bytes and sha256 of a ``{model: {accelerator: result}}``
    tree.

    The tree is serialized through
    :func:`repro.serialization.model_result_to_dict` as sorted-keys
    JSON; a result may be a ``ModelResult`` or its
    ``model_result_to_dict`` form.  Returns ``(text, digest)``: the
    ASCII text and the hex sha256 of it.  A caller that both digests
    and persists a tree (the service's ``results.json``) encodes it
    once.
    """
    from ..serialization import model_result_to_dict

    text = json.dumps(
        {
            model: {
                accelerator: (
                    result
                    if isinstance(result, dict)
                    else model_result_to_dict(result)
                )
                for accelerator, result in per_accelerator.items()
            }
            for model, per_accelerator in results.items()
        },
        sort_keys=True,
    ).encode()
    return text, hashlib.sha256(text).hexdigest()


def results_digest(results: Mapping[str, Mapping[str, Any]]) -> str:
    """Canonical sha256 of a ``{model: {accelerator: result}}`` tree.

    Mirrors the golden suite's sweep digest exactly (see
    :func:`encode_results`), so a service-run campaign and a direct
    in-process :class:`~repro.core.batch.SweepRunner` run of the same
    jobs hash identically.
    """
    return encode_results(results)[1]


def payload_digest(payload: Any) -> str:
    """sha256 of an already-JSON-ready payload (faults/search results)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# Validation helpers (plain functions so error text stays uniform)
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _str_list(raw: Any, field: str) -> list[str]:
    _require(
        isinstance(raw, (list, tuple)) and raw,
        f"{field!r} must be a non-empty list of strings",
    )
    for item in raw:
        _require(isinstance(item, str), f"{field!r} entries must be strings")
    return list(raw)


def _int_field(raw: Any, field: str, minimum: int) -> int:
    _require(
        isinstance(raw, int) and not isinstance(raw, bool) and raw >= minimum,
        f"{field!r} must be an integer >= {minimum}, got {raw!r}",
    )
    return raw


def _number_field(raw: Any, field: str, minimum: float) -> float:
    _require(
        isinstance(raw, (int, float))
        and not isinstance(raw, bool)
        and raw >= minimum,
        f"{field!r} must be a number >= {minimum:g}, got {raw!r}",
    )
    return float(raw)


def _check_keys(raw: Mapping, allowed: set, kind: str) -> None:
    unknown = sorted(set(raw) - allowed)
    _require(
        not unknown,
        f"unknown field(s) for {kind!r} campaign: {unknown}; "
        f"allowed: {sorted(allowed)}",
    )


#: Budget fields a submission may request.  Values only ever *tighten*
#: the server/tenant layers (see :func:`repro.core.budget.compose_budgets`).
_BUDGET_FIELDS = {
    "deadline_s",
    "max_failures",
    "max_consecutive_failures",
    "max_rss_mb",
}


def _normalize_budget(raw: Any) -> dict | None:
    if raw is None:
        return None
    _require(isinstance(raw, Mapping), "'budget' must be an object")
    _check_keys(raw, _BUDGET_FIELDS, "budget")
    budget: dict[str, Any] = {}
    for field in ("deadline_s", "max_rss_mb"):
        if raw.get(field) is not None:
            budget[field] = _number_field(raw[field], field, 0.0)
    for field in ("max_failures", "max_consecutive_failures"):
        if raw.get(field) is not None:
            budget[field] = _int_field(raw[field], field, 1)
    if not budget:
        return None
    # CampaignBudget owns the limits' rules: a budget it would refuse
    # inside the runner slot is refused here, at submission (400).
    from ..core.budget import CampaignBudget

    try:
        CampaignBudget(**budget)
    except ValueError as exc:
        raise ConfigError(f"invalid 'budget': {exc}") from exc
    return budget


def _known_models() -> set:
    from ..models.zoo import EXTENDED_MODELS

    return set(EXTENDED_MODELS)


def _normalize_sweep(raw: Mapping) -> dict:
    _check_keys(
        raw,
        {"kind", "machines", "models", "layer_by_layer", "batch", "budget"},
        "sweep",
    )
    machines = _str_list(raw.get("machines"), "machines")
    for machine in machines:
        _require(
            machine in _MACHINE_NAMES,
            f"unknown machine {machine!r}; "
            f"available: {list(_MACHINE_NAMES)}",
        )
    _require(
        len(set(machines)) == len(machines), "'machines' has duplicates"
    )
    models = _str_list(raw.get("models"), "models")
    known = _known_models()
    for model in models:
        _require(
            model in known,
            f"unknown model {model!r}; available: {sorted(known)}",
        )
    _require(len(set(models)) == len(models), "'models' has duplicates")
    layer_by_layer = raw.get("layer_by_layer", False)
    _require(
        isinstance(layer_by_layer, bool), "'layer_by_layer' must be a bool"
    )
    return {
        "machines": machines,
        "models": models,
        "layer_by_layer": layer_by_layer,
        "batch": _int_field(raw.get("batch", 1), "batch", 1),
    }


def _normalize_faults(raw: Mapping) -> dict:
    from ..experiments.resilience import DEFAULT_FAILURE_RATES

    _check_keys(
        raw,
        {
            "kind",
            "model",
            "rates",
            "samples",
            "seed",
            "threshold",
            "chiplets",
            "pes_per_chiplet",
            "budget",
        },
        "faults",
    )
    model = raw.get("model", "ResNet-50")
    _require(isinstance(model, str), "'model' must be a string")
    known = _known_models()
    _require(
        model in known, f"unknown model {model!r}; available: {sorted(known)}"
    )
    rates_raw = raw.get("rates")
    if rates_raw is None:
        rates = [float(rate) for rate in DEFAULT_FAILURE_RATES]
    else:
        _require(
            isinstance(rates_raw, (list, tuple)) and rates_raw,
            "'rates' must be a non-empty list of numbers",
        )
        rates = [_number_field(rate, "rates", 0.0) for rate in rates_raw]
    seed = raw.get("seed", 2022)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "'seed' must be an integer",
    )
    return {
        "model": model,
        "rates": rates,
        "samples": _int_field(raw.get("samples", 32), "samples", 1),
        "seed": seed,
        "threshold": _number_field(raw.get("threshold", 1.5), "threshold", 1.0),
        "chiplets": _int_field(raw.get("chiplets", 32), "chiplets", 1),
        "pes_per_chiplet": _int_field(
            raw.get("pes_per_chiplet", 32), "pes_per_chiplet", 1
        ),
    }


def _normalize_search(raw: Mapping) -> dict:
    from ..dse.presets import PRESETS
    from ..dse.search import OBJECTIVES, STRATEGIES, VALIDATION_MODES
    from ..dse.space import SearchSpace

    _check_keys(
        raw,
        {"kind", "space", "objective", "strategy", "validation", "top",
         "budget"},
        "search",
    )
    space = raw.get("space")
    if isinstance(space, str):
        _require(
            space in PRESETS,
            f"unknown preset space {space!r}; "
            f"available: {sorted(PRESETS)} (or pass an inline space object)",
        )
        preset = PRESETS[space]
        objective = raw.get("objective", preset.objective)
        validation = raw.get("validation", preset.validation)
    elif isinstance(space, Mapping):
        # Normalized through the space itself (raises ConfigError), so
        # every form SearchSpace.from_dict accepts -- scalar values, the
        # {"dimensions": ...} wrapper -- means what it means there.
        space = SearchSpace.from_dict(space).to_dict()["dimensions"]
        objective = raw.get("objective", "edp")
        validation = raw.get("validation", "physics")
    else:
        raise ConfigError(
            "'space' must be a preset name or an inline space object"
        )
    strategy = raw.get("strategy", "pruned")
    _require(
        objective in OBJECTIVES,
        f"unknown objective {objective!r}; choose from {OBJECTIVES}",
    )
    _require(
        strategy in STRATEGIES,
        f"unknown strategy {strategy!r}; choose from {STRATEGIES}",
    )
    _require(
        validation in VALIDATION_MODES,
        f"unknown validation {validation!r}; choose from {VALIDATION_MODES}",
    )
    return {
        "space": space,
        "objective": objective,
        "strategy": strategy,
        "validation": validation,
        "top": _int_field(raw.get("top", 10), "top", 1),
    }


_NORMALIZERS = {
    "sweep": _normalize_sweep,
    "faults": _normalize_faults,
    "search": _normalize_search,
}


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, normalized campaign submission.

    ``params`` holds the kind-specific normalized fields; ``budget``
    the (optional) requested budget tightenings.  Instances are only
    created through :meth:`from_dict`, so equal campaigns always
    carry byte-equal canonical forms.
    """

    kind: str
    #: Canonical JSON of ``{"kind": ..., "budget": ..., **params}`` --
    #: the dedupe key's preimage.  Stored as the string (hashable,
    #: frozen) rather than nested dicts.
    canonical: str

    @classmethod
    def from_dict(cls, raw: Any) -> "CampaignSpec":
        _require(isinstance(raw, Mapping), "campaign must be a JSON object")
        kind = raw.get("kind")
        _require(
            kind in CAMPAIGN_KINDS,
            f"campaign 'kind' must be one of {list(CAMPAIGN_KINDS)}, "
            f"got {kind!r}",
        )
        params = _NORMALIZERS[kind](raw)
        params["kind"] = kind
        params["budget"] = _normalize_budget(raw.get("budget"))
        return cls(kind=kind, canonical=canonical_json(params))

    @property
    def params(self) -> dict:
        """The normalized submission document (fresh copy)."""
        return json.loads(self.canonical)

    @property
    def content_id(self) -> str:
        """sha256 of the canonical form -- the cross-tenant dedupe key
        and the execution/campaign-directory id."""
        return hashlib.sha256(self.canonical.encode()).hexdigest()

    @property
    def n_jobs(self) -> int:
        """Nominal job count, used for quota accounting and fair-share
        scheduling.  Exact for sweeps; a structural estimate for
        faults (machines x rates cells) and search (space size)."""
        params = self.params
        if self.kind == "sweep":
            return len(params["machines"]) * len(params["models"])
        if self.kind == "faults":
            return 3 * len(params["rates"])  # three evaluated machines
        space = params["space"]
        if isinstance(space, str):
            from ..dse.presets import PRESETS

            space = PRESETS[space].space()
            return len(space)
        product = 1
        for values in space.values():
            product *= max(1, len(values))
        return product

    def requested_budget(self):
        """The submission's budget layer as a
        :class:`~repro.core.budget.CampaignBudget` (or None)."""
        budget = self.params["budget"]
        if not budget:
            return None
        from ..core.budget import CampaignBudget

        return CampaignBudget(**budget)

    def build_sweep_jobs(self):
        """Materialize a sweep spec into ordered ``SweepJob``s plus the
        ``(model, machine)`` labels aligned with them.

        Job order is models-outer / machines-inner, matching the
        harness's ``run_models`` orientation, so the campaign manifest
        and the results tree are reproducible functions of the spec.
        """
        if self.kind != "sweep":
            raise ConfigError(
                f"build_sweep_jobs on a {self.kind!r} campaign"
            )
        from ..core.batch import SweepJob
        from ..core.layer import LayerSet
        from ..models.zoo import get_model

        params = self.params
        jobs = []
        labels = []
        simulators = {
            machine: machine_builder(machine)()
            for machine in params["machines"]
        }
        for model_name in params["models"]:
            model = get_model(model_name)
            if params["batch"] > 1:
                model = LayerSet(
                    f"{model.name} (batch {params['batch']})",
                    [
                        layer.with_batch(params["batch"])
                        for layer in model.all_layers
                    ],
                )
            for machine in params["machines"]:
                jobs.append(
                    SweepJob(
                        simulators[machine],
                        model,
                        layer_by_layer=params["layer_by_layer"],
                    )
                )
                labels.append((model.name, machine))
        return jobs, labels

    def summary(self) -> str:
        """One-line human description for listings and logs."""
        params = self.params
        if self.kind == "sweep":
            return (
                f"sweep: {len(params['models'])} model(s) x "
                f"{len(params['machines'])} machine(s)"
            )
        if self.kind == "faults":
            return (
                f"faults: {params['model']}, {params['samples']} "
                f"samples x {len(params['rates'])} rate(s)"
            )
        space = params["space"]
        name = space if isinstance(space, str) else "inline space"
        return (
            f"search: {name}, {params['strategy']}/{params['objective']}"
        )
