"""Property tests of the codec the knob declarations derive.

The SER001 lint rule only sees literal ``to_dict`` keys, so it cannot check a
field-driven codec.  These properties do, for every declared field of the
kernel ``Scenario`` and both serving scenarios: strategies come from the field annotations, so a new knob
is fuzzed as soon as it is declared (a new annotation type fails loudly here
until it gets a strategy).
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="property tests need hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.api import Scenario  # noqa: E402
from repro.cluster.scenario import ClusterScenario  # noqa: E402
from repro.config.policies import (  # noqa: E402
    ArbitrationKind,
    MshrAwareParams,
    MultiGearParams,
    PolicyConfig,
    ThrottleKind,
)
from repro.config.scale import ScaleTier  # noqa: E402
from repro.dataflow.constraints import DataflowConstraints  # noqa: E402
from repro.dataflow.ordering import ThreadBlockOrdering  # noqa: E402
from repro.serve.scenario import ServeScenario  # noqa: E402

NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-+", min_size=1, max_size=12)
INTS = st.integers(min_value=1, max_value=1 << 20)
FLOATS = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
PAIRS = st.lists(st.tuples(NAMES, INTS), max_size=3).map(tuple)
CONSTRAINTS = st.builds(
    DataflowConstraints,
    vector_axis=st.sampled_from(("d", "l")),
    min_inner_bytes=INTS,
    output_lines_per_block=st.integers(1, 4),
    line_size=st.sampled_from((32, 64, 128)),
)
POLICY_CONFIGS = st.builds(
    PolicyConfig,
    arbitration=st.sampled_from(ArbitrationKind),
    throttle=st.sampled_from(ThrottleKind),
    multigear=st.builds(MultiGearParams, sampling_period=INTS),
    mshr_aware=st.builds(MshrAwareParams, hit_buffer_size=INTS, sent_reqs_size=INTS),
)

#: One strategy per field annotation (string annotations: the modules use
#: ``from __future__ import annotations``).
BY_TYPE = {
    "str": NAMES,
    "int": INTS,
    "float": FLOATS,
    "bool": st.booleans(),
    "ScaleTier": st.sampled_from(ScaleTier),
    "tuple[int, int]": st.tuples(INTS, INTS),
    "tuple[str, ...]": st.lists(NAMES, min_size=1, max_size=4).map(tuple),
    "tuple[tuple[str, object], ...]": PAIRS,
    "int | None": st.none() | INTS,
    "float | None": st.none() | FLOATS,
    "str | None": st.none() | NAMES,
    "int | str | None": st.none() | INTS | st.just("system"),
    "ThreadBlockOrdering": st.sampled_from(ThreadBlockOrdering),
    "DataflowConstraints | None": st.none() | CONSTRAINTS,
    "PolicyConfig | None": st.none() | POLICY_CONFIGS,
}

#: Values the codec canonicalizes must be drawn in canonical form.
BY_NAME = {
    "disaggregated": st.none()
    | st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda pd: f"{pd[0]}p{pd[1]}d"),
}


@st.composite
def scenarios(draw, cls):
    values = {
        f.name: draw(BY_NAME[f.name] if f.name in BY_NAME else BY_TYPE[str(f.type)])
        for f in fields(cls)
    }
    scenario = cls(**values)
    # A switched-off group is not serialized, so it only round-trips at its
    # defaults: pin the members of every group that is off.
    defaults = {
        f.name: f.default
        for f in fields(cls)
        if (switch := f.metadata["knob"].omit_unless) and values[switch] is None
    }
    return replace(scenario, **defaults)


@pytest.mark.parametrize("cls", [ServeScenario, ClusterScenario], ids=lambda c: c.__name__)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_codec_round_trips_and_keys_ignore_labels(cls, data):
    scenario = data.draw(scenarios(cls))
    encoded = scenario.to_dict()
    assert cls.from_dict(encoded) == scenario
    stored = json.loads(json.dumps(encoded))
    assert cls.from_dict(stored) == scenario
    assert cls.from_dict(stored).key() == scenario.key()
    assert replace(scenario, label="relabelled").key() == scenario.key()
    for f in fields(cls):
        switch = f.metadata["knob"].omit_unless
        if switch is not None:
            assert (f.name in encoded) == (getattr(scenario, switch) is not None), f.name


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_kernel_codec_round_trips(data):
    """The kernel Scenario's codec, through JSON too.  Its key resolves registry
    names, which drawn names are not, so keys are covered by the golden tests."""

    scenario = data.draw(scenarios(Scenario))
    encoded = scenario.to_dict()
    assert list(encoded) == [f.name for f in fields(Scenario)]
    assert Scenario.from_dict(encoded) == scenario
    assert Scenario.from_dict(json.loads(json.dumps(encoded))) == scenario
