"""Decorator-based experiment registry.

Each experiment module declares itself with :func:`register`::

    @register("fig2", title="...", tags=("curves",), cost="cheap")
    def run(scale: float = 1.0) -> ExperimentResult:
        ...

Importing this module imports every experiment module (in paper order),
which populates the registry as a side effect. :data:`SPECS` holds
every registered experiment; :func:`experiment_ids` lists them in paper
order, and :func:`run_experiment` runs one with validated keyword
options.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from ..errors import ConfigurationError
from .base import ExperimentResult

#: Every experiment module, in paper presentation order. Each module's
#: name is the id it registers; importing the modules in this order
#: fills the registry, and ids registered elsewhere sort after these,
#: in registration order.
_PAPER_ORDER = (
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "openpiton",
    "optane",
    "ablation",
    "wsweep",
    "thrash",
    "policydelta",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the registry knows about one experiment."""

    experiment_id: str
    func: Callable[..., ExperimentResult]
    title: str = ""
    tags: tuple[str, ...] = ()
    #: Rough wall-time class: "cheap" (milliseconds-seconds, analytic),
    #: "moderate" (seconds, small simulations) or "expensive" (full
    #: characterization sweeps on the cycle-level substrate).
    cost: str = "moderate"
    #: Declared keyword options (name -> default), introspected from the
    #: run function's signature; ``scale`` is implicit and excluded.
    #: A read-only view: specs are shared registry state, and a caller
    #: mutating one would corrupt option validation for everyone.
    params: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )
    order: int = 10_000

    @property
    def module(self) -> str:
        return (self.func.__module__ or "").split(".")[-1]


#: Experiment id -> full spec, populated by :func:`register`.
SPECS: dict[str, ExperimentSpec] = {}

_COSTS = ("cheap", "moderate", "expensive")


def _declared_params(func: Callable) -> dict[str, object]:
    """Keyword options of a run function (everything except ``scale``)."""
    params: dict[str, object] = {}
    for name, parameter in inspect.signature(func).parameters.items():
        if name == "scale":
            continue
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            default = (
                None
                if parameter.default is inspect.Parameter.empty
                else parameter.default
            )
            params[name] = default
    return params


def register(
    experiment_id: str,
    *,
    title: str = "",
    tags: tuple[str, ...] = (),
    cost: str = "moderate",
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Class the decorated run function as experiment ``experiment_id``.

    Duplicate ids are configuration errors — silently shadowing an
    experiment would corrupt every downstream manifest and cache key.
    """
    if cost not in _COSTS:
        raise ConfigurationError(
            f"{experiment_id}: cost must be one of {_COSTS}, got {cost!r}"
        )

    def decorator(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in SPECS:
            raise ConfigurationError(
                f"duplicate experiment id {experiment_id!r} "
                f"(already registered by {SPECS[experiment_id].module})"
            )
        try:
            order = _PAPER_ORDER.index(experiment_id)
        except ValueError:
            order = len(_PAPER_ORDER) + len(SPECS)
        spec = ExperimentSpec(
            experiment_id=experiment_id,
            func=func,
            title=title,
            tags=tuple(tags),
            cost=cost,
            params=MappingProxyType(_declared_params(func)),
            order=order,
        )
        SPECS[experiment_id] = spec
        func.experiment_id = experiment_id  # type: ignore[attr-defined]
        return func

    return decorator


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The registered spec for one experiment id."""
    try:
        return SPECS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(SPECS)}"
        ) from None


def validate_options(experiment_id: str, options: Mapping[str, object]) -> None:
    """Reject options the experiment does not declare."""
    spec = get_spec(experiment_id)
    unknown = set(options) - set(spec.params)
    if unknown:
        declared = sorted(spec.params) or ["(none)"]
        raise ConfigurationError(
            f"{experiment_id}: unknown option(s) {sorted(unknown)}; "
            f"declared options: {declared}"
        )


def run_experiment(
    experiment_id: str, *, scale: float = 1.0, **options
) -> ExperimentResult:
    """Run one experiment by id with validated keyword options."""
    spec = get_spec(experiment_id)
    validate_options(experiment_id, options)
    return spec.func(scale=scale, **options)


def experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    return [spec.experiment_id for spec in sorted(SPECS.values(), key=lambda s: s.order)]


def _load_experiment_modules() -> None:
    """Import every experiment module so its ``@register`` runs."""
    for name in _PAPER_ORDER:
        importlib.import_module(f".{name}", __package__)


_load_experiment_modules()
