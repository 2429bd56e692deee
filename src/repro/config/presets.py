"""Named presets matching the paper's experimental setup (Table 5, §6.2).

Every preset registers itself in the scenario registries
(:mod:`repro.registry`), which is what makes it addressable by name from the
CLI, declarative sweep grids and :class:`repro.api.Scenario`.
Adding a workload, system or policy is *only* a matter of writing one decorated
builder here (or in downstream code) -- no other layer needs editing.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.policies import ArbitrationKind, PolicyConfig, ThrottleKind
from repro.config.system import MIB, SystemConfig
from repro.config.workload import GQAShape, OperatorKind, WorkloadConfig
from repro.registry import (
    POLICIES,
    register_policy,
    register_system,
    register_workload,
)

# ---------------------------------------------------------------------------------
# Hardware presets
# ---------------------------------------------------------------------------------


@register_system("table5", description="Table 5 system: 1.96 GHz, 16 cores, 16 MB sliced L2")
def table5_system() -> SystemConfig:
    """The simulated system of Table 5 (1.96 GHz, 16 cores, 16 MB sliced L2)."""

    return SystemConfig().validate()


def table5_system_with_l2(l2_mib: int) -> SystemConfig:
    """Table 5 system with a different L2 capacity (Fig 9 sweeps 16/32/64 MB)."""

    return table5_system().with_l2_size(l2_mib * MIB)


@register_system(
    "table5-32core",
    description="Table 5 scaled out: 32 cores, 32 MB L2 in 16 slices",
)
def table5_32core_system() -> SystemConfig:
    """A scaled-out Table 5 variant: 2x cores, 2x L2 capacity, 2x slices.

    Doubling capacity and slice count together keeps the per-slice geometry
    (sets, MSHR entries, queue depths) identical to the paper's system, so the
    per-slice contention mechanisms stay comparable while the core:slice ratio
    is preserved.
    """

    base = table5_system()
    system = replace(
        base,
        core=replace(base.core, num_cores=32),
        l2=replace(base.l2, size_bytes=32 * MIB, num_slices=16),
        kv_budget_tokens=32768,
    )
    return system.validate()


@register_system(
    "table5-8core",
    description="Table 5 scaled down: 8 cores, 8 MB L2 in 4 slices",
)
def table5_8core_system() -> SystemConfig:
    """A scaled-down Table 5 variant: half the cores, L2 capacity and slices.

    The per-slice geometry (sets, MSHR entries, queue depths) and the
    core:slice ratio match the paper's system, so contention behaviour stays
    comparable.  Useful as the weak member of a heterogeneous serving fleet
    (``repro.cluster`` mixes system presets across replicas).
    """

    base = table5_system()
    system = replace(
        base,
        core=replace(base.core, num_cores=8),
        l2=replace(base.l2, size_bytes=8 * MIB, num_slices=4),
        kv_budget_tokens=8192,
    )
    return system.validate()


# ---------------------------------------------------------------------------------
# Workload presets (§6.2.2)
# ---------------------------------------------------------------------------------


@register_workload(
    "llama3-70b",
    aliases=("llama3-70b-decode",),
    description="Llama3-70B decode Logit: H=8, G=8, D=128",
)
def llama3_70b_logit(seq_len: int = 8192) -> WorkloadConfig:
    """Logit operator of Llama3-70B decode: H=8, G=8, D=128."""

    return WorkloadConfig(
        name="llama3-70b",
        shape=GQAShape(num_kv_heads=8, group_size=8, head_dim=128, seq_len=seq_len),
        operator=OperatorKind.LOGIT,
    ).validate()


@register_workload(
    "llama3-405b",
    aliases=("llama3-405b-decode",),
    description="Llama3-405B decode Logit: H=8, G=16, D=128",
)
def llama3_405b_logit(seq_len: int = 8192) -> WorkloadConfig:
    """Logit operator of Llama3-405B decode: H=8, G=16, D=128."""

    return WorkloadConfig(
        name="llama3-405b",
        shape=GQAShape(num_kv_heads=8, group_size=16, head_dim=128, seq_len=seq_len),
        operator=OperatorKind.LOGIT,
    ).validate()


@register_workload(
    "llama3-70b-attend", description="Llama3-70B decode Attend (AttScore @ V)"
)
def llama3_70b_attend(seq_len: int = 8192) -> WorkloadConfig:
    """Attend operator (AttScore @ V) of Llama3-70B decode."""

    return WorkloadConfig(
        name="llama3-70b-attend",
        shape=GQAShape(num_kv_heads=8, group_size=8, head_dim=128, seq_len=seq_len),
        operator=OperatorKind.ATTEND,
    ).validate()


@register_workload(
    "llama3-405b-attend", description="Llama3-405B decode Attend (AttScore @ V)"
)
def llama3_405b_attend(seq_len: int = 8192) -> WorkloadConfig:
    """Attend operator (AttScore @ V) of Llama3-405B decode."""

    return WorkloadConfig(
        name="llama3-405b-attend",
        shape=GQAShape(num_kv_heads=8, group_size=16, head_dim=128, seq_len=seq_len),
        operator=OperatorKind.ATTEND,
    ).validate()


#: Sequence lengths of Fig 7 (the miss-handling-throughput-bound regime).
FIG7_SEQ_LENS = (4096, 8192, 16384)

#: Sequence length and L2 sizes of Fig 9 (the cache-capacity-bound regime).
FIG9_SEQ_LEN = 32768
FIG9_L2_MIB = (16, 32, 64)


# ---------------------------------------------------------------------------------
# Policy presets
# ---------------------------------------------------------------------------------


@register_policy(
    "unopt",
    aliases=("unoptimized",),
    description="No throttling, FCFS arbitration (the paper's baseline)",
)
def unoptimized() -> PolicyConfig:
    """No throttling, FCFS arbitration -- the paper's normalisation baseline."""

    return PolicyConfig().validate()


@register_policy("dyncta", description="DYNCTA throttling baseline (PACT 2013)")
def dyncta() -> PolicyConfig:
    return PolicyConfig(throttle=ThrottleKind.DYNCTA).validate()


@register_policy("lcs", description="LCS throttling baseline (HPCA 2014)")
def lcs() -> PolicyConfig:
    return PolicyConfig(throttle=ThrottleKind.LCS).validate()


@register_policy("dynmg", description="Two-level dynamic multi-gear throttling (this paper)")
def dynmg() -> PolicyConfig:
    """Two-level dynamic multi-gear throttling (the paper's throttling policy)."""

    return PolicyConfig(throttle=ThrottleKind.DYNMG).validate()


@register_policy("cobrra", description="COBRRA arbitration baseline (TECS 2024)")
def cobrra(throttle: ThrottleKind = ThrottleKind.NONE) -> PolicyConfig:
    return PolicyConfig(throttle=throttle, arbitration=ArbitrationKind.COBRRA).validate()


@register_policy(
    "dynmg+cobrra", description="COBRRA arbitration on top of dynmg throttling"
)
def dynmg_cobrra() -> PolicyConfig:
    return cobrra(ThrottleKind.DYNMG)


@register_policy("dynmg+B", description='"B" balanced arbitration on top of dynmg')
def balanced(throttle: ThrottleKind = ThrottleKind.DYNMG) -> PolicyConfig:
    """"B" arbitration; by default on top of dynmg as in Fig 7(b)&(e)."""

    return PolicyConfig(throttle=throttle, arbitration=ArbitrationKind.BALANCED).validate()


@register_policy("dynmg+MA", description='"MA" MSHR-aware arbitration on top of dynmg')
def mshr_aware(throttle: ThrottleKind = ThrottleKind.DYNMG) -> PolicyConfig:
    """"MA" arbitration on top of dynmg."""

    return PolicyConfig(
        throttle=throttle, arbitration=ArbitrationKind.MSHR_AWARE
    ).validate()


@register_policy(
    "dynmg+BMA",
    description='"BMA" balanced MSHR-aware arbitration on dynmg (the paper\'s final policy)',
)
def bma(throttle: ThrottleKind = ThrottleKind.DYNMG) -> PolicyConfig:
    """"BMA" -- the paper's final policy (dynmg + balanced MSHR-aware arbitration)."""

    return PolicyConfig(
        throttle=throttle, arbitration=ArbitrationKind.BALANCED_MSHR_AWARE
    ).validate()


# -- compositional labels ----------------------------------------------------------
# Any "+"-joined combination of one throttle and one arbitration component is a
# valid policy label (e.g. "lcs+MA"); the registry falls back to this parser
# when a label is not registered verbatim.

_THROTTLE_COMPONENTS = {
    "unopt": ThrottleKind.NONE,
    "unoptimized": ThrottleKind.NONE,
    "dyncta": ThrottleKind.DYNCTA,
    "lcs": ThrottleKind.LCS,
    "dynmg": ThrottleKind.DYNMG,
}
_ARBITRATION_COMPONENTS = {
    "": ArbitrationKind.FCFS,
    "fcfs": ArbitrationKind.FCFS,
    "b": ArbitrationKind.BALANCED,
    "ma": ArbitrationKind.MSHR_AWARE,
    "bma": ArbitrationKind.BALANCED_MSHR_AWARE,
    "cobrra": ArbitrationKind.COBRRA,
}


def _compose_policy_label(label: str) -> PolicyConfig:
    """Compose a PolicyConfig from ``"throttle+arbitration"`` components."""

    throttle = ThrottleKind.NONE
    arbitration = ArbitrationKind.FCFS
    for part in (p.strip().lower() for p in label.split("+")):
        if part in _THROTTLE_COMPONENTS:
            throttle = _THROTTLE_COMPONENTS[part]
        elif part in _ARBITRATION_COMPONENTS:
            arbitration = _ARBITRATION_COMPONENTS[part]
        else:
            raise KeyError(part)
    return PolicyConfig(throttle=throttle, arbitration=arbitration).validate()


def _policy_fallback(label: str):
    """Registry fallback: compose eagerly (so unknown components raise here),
    then hand back a zero-argument builder matching the registered entries."""

    policy = _compose_policy_label(label)
    return lambda: policy


POLICIES.fallback = _policy_fallback


def policy_by_label(label: str) -> PolicyConfig:
    """Build a policy from a paper-style label, e.g. ``"dynmg+BMA"``.

    Kept as the historical name for :func:`repro.registry.resolve_policy`.
    """

    return POLICIES.get(label)()
