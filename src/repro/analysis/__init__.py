"""Static analysis and runtime invariant checking for the reproduction.

Every guarantee this repo makes -- byte-identical golden fixtures,
content-hash sweep keys, CI double-run ``cmp`` checks, traced == untraced
metric equality -- rests on strict determinism.  ``repro.analysis`` turns the
rules that keep those guarantees true from review-time tribal knowledge into
machine-checked invariants:

* :mod:`repro.analysis.engine` -- a small AST lint framework (stdlib ``ast``
  only): a rule registry reusing the :mod:`repro.registry` decorator pattern,
  per-rule codes, ``# repro: noqa[CODE]`` suppressions with unused-suppression
  detection, and text / JSON reporting for ``llamcat check``.
* :mod:`repro.analysis.rules` -- the repo-specific rules (DET/REG/SER/API/CLI
  codes): unseeded RNGs, wall-clock reads in deterministic modules, unordered
  iteration feeding serialized output, registry registrations invisible to the
  lazy bootstrap, ``to_dict``/``from_dict`` asymmetry, frozen-dataclass
  mutation outside ``__post_init__``, stray stdout prints.
* :mod:`repro.analysis.runtime` -- the divergence localizer: per-step state
  digests (queue contents, batch composition, RNG stream position) recorded
  by a :class:`StepProbe` observer of the serving loop, plus
  ``check_determinism`` which runs a scenario twice and bisects to the first
  divergent step (``llamcat check --determinism``).
* :mod:`repro.analysis.liveness` -- the kernel-sim liveness smoke: runs the
  previously-livelocked cobrra drain point twice, demanding ``completed``
  status and byte-identical results, and a starvation fault injector proving
  the engine watchdog turns the regression into a structured stall report
  (``llamcat check --determinism liveness-smoke``).

Quick start::

    from repro.analysis import check_paths, explain_rule

    findings = check_paths(["src", "tests", "examples"])
    for finding in findings:
        print(finding.render())
"""

from repro.analysis.engine import (
    NOQA_PATTERN,
    RULES,
    Finding,
    LintRule,
    ParsedModule,
    ProjectRule,
    all_rules,
    check_paths,
    check_source,
    discover_files,
    explain_rule,
    findings_to_json,
    parse_module,
    register_rule,
    rule_codes,
)
from repro.analysis.liveness import (
    LivenessReport,
    StarvationInjectedArbiter,
    check_liveness,
    livelock_scenario,
)
from repro.analysis.runtime import (
    DeterminismReport,
    RngJitterArrival,
    StepDigest,
    StepProbe,
    check_determinism,
    collect_digests,
    localize_divergence,
)

__all__ = [
    "DeterminismReport",
    "Finding",
    "LintRule",
    "LivenessReport",
    "NOQA_PATTERN",
    "ParsedModule",
    "ProjectRule",
    "RULES",
    "RngJitterArrival",
    "StarvationInjectedArbiter",
    "StepDigest",
    "StepProbe",
    "all_rules",
    "check_determinism",
    "check_liveness",
    "check_paths",
    "check_source",
    "collect_digests",
    "discover_files",
    "explain_rule",
    "findings_to_json",
    "livelock_scenario",
    "localize_divergence",
    "parse_module",
    "register_rule",
    "rule_codes",
]
