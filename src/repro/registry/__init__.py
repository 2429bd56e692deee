"""Scenario-component registries: the extension point of the whole stack.

Nine global registries name every pluggable piece of a simulation:

* :data:`WORKLOADS` -- ``name -> builder(seq_len) -> WorkloadConfig``
* :data:`SYSTEMS`   -- ``name -> builder() -> SystemConfig``
* :data:`POLICIES`  -- ``label -> builder() -> PolicyConfig`` (case-insensitive,
  with a compositional fallback for ``"throttle+arbitration"`` labels)
* :data:`THROTTLES` -- ``ThrottleKind -> factory(PolicyConfig) -> controller``
* :data:`ARRIVALS`  -- ``name -> builder(sampler, rate, num_requests, **params)
  -> ArrivalProcess`` (request streams for :mod:`repro.serve`)
* :data:`SCHEDULERS` -- ``name -> builder(prefill_chunk, **params) ->
  SchedulerPolicy`` (prefill/decode step planning for :mod:`repro.serve`)
* :data:`ROUTERS`   -- ``name -> builder(num_replicas, **params) -> Router``
  (replica dispatch for :mod:`repro.cluster`)
* :data:`ARBITERS`  -- ``kind -> builder(policy, l2, num_cores) ->
  BaseArbiter`` (LLC-slice request/response arbitration policies)
* :data:`PREEMPTIONS` -- ``name -> builder(KVCacheConfig) ->
  PreemptionPolicy`` (KV-pressure eviction policies for :mod:`repro.serve`)

Registering a component makes it usable everywhere at once -- the CLI
(``llamcat list/run/sweep``), declarative sweep grids, the figure harnesses and
:class:`repro.api.Scenario` all resolve names through here::

    from repro.registry import register_workload

    @register_workload("my-model", description="My model's decode Logit")
    def my_model(seq_len: int = 8192) -> WorkloadConfig:
        ...

The built-in entries live in :mod:`repro.config.presets` (workloads, systems,
policies) and :mod:`repro.throttle.factory` (throttle controllers); those
modules are imported lazily on first lookup, so importing this package is
cycle-free and cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.registry.core import Registry, RegistryEntry

if TYPE_CHECKING:  # real imports would be cyclic (presets registers through us)
    from repro.config.system import SystemConfig
    from repro.config.workload import WorkloadConfig


def _policy_norm(label: str) -> str:
    return label.strip().lower()


WORKLOADS: Registry = Registry("workload", bootstrap=("repro.config.presets",))
SYSTEMS: Registry = Registry("system", bootstrap=("repro.config.presets",))
POLICIES: Registry = Registry(
    "policy", bootstrap=("repro.config.presets",), normalize=_policy_norm
)
THROTTLES: Registry = Registry(
    "throttle controller",
    bootstrap=("repro.throttle.factory",),
    normalize=_policy_norm,
)
ARRIVALS: Registry = Registry(
    "arrival process",
    bootstrap=("repro.serve.arrival",),
    normalize=_policy_norm,
)
SCHEDULERS: Registry = Registry(
    "scheduler",
    bootstrap=("repro.serve.schedpolicy",),
    normalize=_policy_norm,
)
ROUTERS: Registry = Registry(
    "router",
    bootstrap=("repro.cluster.router",),
    normalize=_policy_norm,
)
ARBITERS: Registry = Registry(
    "arbiter",
    bootstrap=("repro.arbiter.factory",),
    normalize=_policy_norm,
)
PREEMPTIONS: Registry = Registry(
    "preemption policy",
    bootstrap=("repro.serve.kvcache",),
    normalize=_policy_norm,
)


# -- decorators (the public registration surface) ----------------------------------------
def register_workload(name: str, **kwargs):
    """Register a ``(seq_len) -> WorkloadConfig`` builder under ``name``."""

    return WORKLOADS.register(name, **kwargs)


def register_system(name: str, **kwargs):
    """Register a ``() -> SystemConfig`` builder under ``name``."""

    return SYSTEMS.register(name, **kwargs)


def register_policy(name: str, **kwargs):
    """Register a ``() -> PolicyConfig`` builder under a paper-style label."""

    return POLICIES.register(name, **kwargs)


def register_throttle(kind, **kwargs):
    """Register a ``(PolicyConfig) -> ThrottleController`` factory.

    ``kind`` may be a :class:`~repro.config.policies.ThrottleKind` member or
    its string value.
    """

    name = getattr(kind, "value", kind)
    return THROTTLES.register(name, **kwargs)


def register_arrival(name: str, **kwargs):
    """Register an arrival-process builder for the serving simulator.

    The builder signature is
    ``(sampler, rate, num_requests, **params) -> ArrivalProcess`` -- see
    :mod:`repro.serve.arrival` for the built-in generators.
    """

    return ARRIVALS.register(name, **kwargs)


def register_scheduler(name: str, **kwargs):
    """Register a step-planning policy builder for the serving scheduler.

    The builder signature is ``(prefill_chunk, **params) -> SchedulerPolicy``
    -- see :mod:`repro.serve.schedpolicy` for the built-in disciplines.
    """

    return SCHEDULERS.register(name, **kwargs)


def register_router(name: str, **kwargs):
    """Register a replica-routing builder for the cluster simulator.

    The builder signature is ``(num_replicas, **params) -> Router`` -- see
    :mod:`repro.cluster.router` for the built-in disciplines.
    """

    return ROUTERS.register(name, **kwargs)


def register_arbiter(name: str, **kwargs):
    """Register an LLC-slice arbiter builder under an arbitration-kind name.

    The builder signature is ``(policy, l2, num_cores) -> BaseArbiter`` -- see
    :mod:`repro.arbiter.factory` for the built-in policies.  Every registered
    arbiter is pinned by the conformance suite in
    ``tests/arbiter/test_conformance.py`` (drain guarantee, grant-count
    conservation).
    """

    return ARBITERS.register(name, **kwargs)


def register_preemption(name: str, **kwargs):
    """Register a KV-pressure preemption policy builder under ``name``.

    The builder signature is ``(KVCacheConfig) -> PreemptionPolicy`` -- see
    :mod:`repro.serve.kvcache` for the built-in ``recompute``/``swap``
    policies.  Every registered policy is pinned by the conformance suite in
    ``tests/serve/test_preemption_conformance.py`` (request conservation, no
    preempted-request loss).
    """

    return PREEMPTIONS.register(name, **kwargs)


# -- resolution helpers (name strings -> config objects) ---------------------------------
def resolve_workload(name: str, seq_len: int | None = None) -> "WorkloadConfig":
    """Build the workload registered under ``name``.

    ``seq_len=None`` keeps the builder's own default sequence length.
    """

    builder = WORKLOADS.get(name)
    if seq_len is not None:
        return builder(seq_len)
    try:
        return builder()
    except TypeError as exc:
        raise ConfigError(
            f"workload {name!r} has no default sequence length; pass seq_len "
            f"explicitly ({exc})"
        ) from exc


def resolve_system(name: str) -> "SystemConfig":
    """Build the system registered under ``name``."""

    return SYSTEMS.get(name)()


def resolve_arrival(name: str):
    """The arrival-process builder registered under ``name``."""

    return ARRIVALS.get(name)


def resolve_scheduler(name: str):
    """The scheduler-policy builder registered under ``name``."""

    return SCHEDULERS.get(name)


def resolve_router(name: str):
    """The replica-router builder registered under ``name``."""

    return ROUTERS.get(name)


def resolve_arbiter(name: str):
    """The arbiter builder registered under ``name`` (an arbitration kind)."""

    return ARBITERS.get(name)


def resolve_preemption(name: str):
    """The KV preemption-policy builder registered under ``name``."""

    return PREEMPTIONS.get(name)


def resolve_policy(label: str):
    """Build a policy from a registered label or a compositional one.

    Canonical paper labels (``"dynmg+BMA"``, ``"unopt"``...) hit the registry;
    other ``"+"``-joined combinations of known components are composed by the
    registry's fallback parser.  Unknown names raise :class:`ConfigError`
    listing the registered labels.
    """

    return POLICIES.get(label)()


__all__ = [
    "ARBITERS",
    "ARRIVALS",
    "POLICIES",
    "PREEMPTIONS",
    "ROUTERS",
    "Registry",
    "RegistryEntry",
    "SCHEDULERS",
    "SYSTEMS",
    "THROTTLES",
    "WORKLOADS",
    "register_arbiter",
    "register_arrival",
    "register_policy",
    "register_preemption",
    "register_router",
    "register_scheduler",
    "register_system",
    "register_throttle",
    "register_workload",
    "resolve_arbiter",
    "resolve_arrival",
    "resolve_policy",
    "resolve_preemption",
    "resolve_router",
    "resolve_scheduler",
    "resolve_system",
    "resolve_workload",
]
