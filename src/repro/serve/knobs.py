"""Scenario knobs, declared once: the field table behind every scenario.

Each field of a kernel (:class:`repro.api.Scenario`), serve or cluster
scenario is declared once, as ``field(default=..., metadata=knob(...))``:
:func:`knob` stores a :class:`Knob` in the dataclass field's metadata.  The
declaration carries the help text, the allowed range, the JSON codec, the
omit-when-unset group, the command-line spelling and the sweep role.
Everything else derives from it:

* ``to_dict`` / ``from_dict`` (:func:`encode`, :func:`decode`);
* the range checks of ``validate()`` (:func:`check_ranges`);
* the ``run`` / ``info`` / ``serve`` / ``cluster`` / ``sweep`` flags
  (:func:`add_flags`), the scenario a command line names (:func:`from_args`)
  and each sweep mode's grid (:func:`sweep_grid`).

Registry-name resolution and cross-field rules stay hand-written in the
scenario classes.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import Field, dataclass, fields
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.common.errors import ConfigError
from repro.config.scale import parse_tier
from repro.sweep.spec import Grid, config_to_jsonable

#: Range names a knob may declare; both also require a finite float.
POSITIVE = "positive"
NON_NEGATIVE = "non-negative"


class Codec(NamedTuple):
    """How a field is written to (and read back from) JSON-able data."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


PLAIN = Codec(lambda value: value, lambda value: value)
TUPLE = Codec(list, tuple)
PAIRS = Codec(
    lambda pairs: [[k, v] for k, v in pairs],
    lambda pairs: tuple((k, v) for k, v in pairs),
)
TIER = Codec(lambda tier: tier.name, parse_tier)


def optional_config(build: Callable[[dict], Any]) -> Codec:
    """The codec of an optional config dataclass, written as its field dict."""

    return Codec(config_to_jsonable, lambda data: None if data is None else build(data))


@dataclass(frozen=True, slots=True)
class Knob:
    """The declaration of one scenario field, made through :func:`knob`."""

    help: str = ""
    #: :data:`POSITIVE` or :data:`NON_NEGATIVE`; None skips the check, and a
    #: None value always passes.
    bound: str | None = None
    codec: Codec = PLAIN
    #: The field whose None value drops this one from ``to_dict``, so knobs
    #: added later keep the content hashes of older scenarios.
    omit_unless: str | None = None
    #: Option strings on the scenario's own subcommands (and ``sweep``, for
    #: sweep knobs).
    flags: tuple[str, ...] = ()
    #: The flag's argument type (default: the type of an int/float default).
    parse: Callable[[str], Any] | None = None
    #: The flag's default where it is not the field's (None: the field's).
    flag_default: Any = None
    #: Makes the flag's value optional (``nargs="?"``).
    const: Any = None
    #: A scalar sweep flag, applied to every point of the grid.
    sweep: bool = False
    #: A sweep axis, by loop rank (0 is the outermost loop) ...
    axis: int | None = None
    #: ... and its default values (else the flag default alone).
    axis_values: tuple[Any, ...] | None = None


def knob(**declaration: Any) -> dict[str, Knob]:
    """Field metadata declaring a knob: ``field(default=..., metadata=knob(...))``."""

    return {"knob": Knob(**declaration)}


def knobs(cls: Any) -> Iterator[tuple[Field, Knob]]:
    """Every (field, declaration) pair of a scenario class, in field order."""

    for f in fields(cls):
        yield f, f.metadata["knob"]


def encode(scenario: Any) -> dict:
    """``scenario`` as JSON-able data, minus the groups that are switched off."""

    return {
        f.name: spec.codec.encode(getattr(scenario, f.name))
        for f, spec in knobs(type(scenario))
        if spec.omit_unless is None or getattr(scenario, spec.omit_unless) is not None
    }


def decode(cls: Any, data: dict) -> Any:
    """The ``cls`` scenario ``data`` describes (missing keys take defaults)."""

    return cls(
        **{f.name: spec.codec.decode(data[f.name]) for f, spec in knobs(cls) if f.name in data}
    )


def check_ranges(scenario: Any) -> None:
    """Raise a ConfigError naming the first field outside its declared range."""

    for f, spec in knobs(type(scenario)):
        value = getattr(scenario, f.name)
        if spec.bound is None or value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if not (value > 0 if spec.bound == POSITIVE else value >= 0):
            raise ConfigError(f"{f.name} must be {spec.bound}, got {value}")


# -- command line ----------------------------------------------------------------------


class _Given(argparse.Action):
    """Records each derived flag the command line sets in ``namespace.given``.

    Flag defaults stay the field defaults, so ``given`` is what tells an
    explicit ``--replicas 2`` from the default one.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = {**given(namespace), self.dest: option_string}


class _Store(_Given, argparse._StoreAction):
    pass


class _Append(_Given, argparse._AppendAction):
    pass


class _StoreFalse(_Given, argparse._StoreFalseAction):
    pass


def given(args: argparse.Namespace) -> dict[str, str]:
    """Field name -> option string of every derived flag set on the command line."""

    return getattr(args, "given", {})


def _flag_default(f: Field, spec: Knob) -> Any:
    return f.default if spec.flag_default is None else spec.flag_default


def add_flags(
    parser: argparse.ArgumentParser,
    classes: tuple[Any, ...],
    *,
    sweep: bool = False,
    skip: Iterable[str] = (),
) -> None:
    """Add the flags of every declared knob of ``classes`` (dest: the field name).

    With ``sweep``, only sweep knobs get flags: axes become repeatable, the
    help gives each sweep mode's (scenario kind's) axis default and names
    the modes that take the flag, when not all do.  ``skip`` lists fields
    that get no flag here.
    """

    seen = set(skip)
    for cls in classes:
        for f, spec in knobs(cls):
            swept = spec.sweep or spec.axis is not None
            if f.name in seen or not spec.flags or (sweep and not swept):
                continue
            seen.add(f.name)
            parse = spec.parse
            if parse is None and isinstance(f.default, (int, float)):
                parse = type(f.default)
            kwargs: dict[str, Any] = {"dest": f.name, "help": spec.help}
            if isinstance(f.default, bool):  # on by default: the flag turns it off
                kwargs["action"] = _StoreFalse
            elif (sweep and spec.axis is not None) or isinstance(f.default, tuple):
                kwargs |= {"action": _Append, "type": parse}
            else:
                kwargs |= {"action": _Store, "type": parse, "default": _flag_default(f, spec)}
                if spec.const is not None:
                    kwargs |= {"nargs": "?", "const": spec.const}
            if sweep:
                owners = [(c.kind, g, k) for c in classes for g, k in knobs(c) if g.name == f.name]
                if spec.axis is not None:
                    defaults: dict[tuple, list[str]] = {}
                    for kind, g, k in owners:
                        defaults.setdefault(k.axis_values or (_flag_default(g, k),), []).append(kind)
                    text = "; ".join(
                        str(values) if len(defaults) == 1 else f"{'/'.join(kinds)}: {values}"
                        for values, kinds in defaults.items()
                    )
                    kwargs["help"] += f"; repeatable sweep axis (default: {text})"
                if len(owners) < len(classes):
                    kwargs["help"] += f" ({'/'.join(kind for kind, _, _ in owners)} sweep only)"
            parser.add_argument(*spec.flags, **kwargs)


def from_args(cls: Any, args: argparse.Namespace, **overrides: Any) -> Any:
    """The scenario the parsed flags of a ``cls`` subcommand name.

    Unset (None) and skipped flags keep the field defaults; ``overrides`` are
    JSON-style values (as in ``to_dict``) that win over the flags.
    """

    data = {f.name: getattr(args, f.name, None) for f, spec in knobs(cls) if spec.flags}
    return decode(cls, {k: v for k, v in data.items() if v is not None} | overrides)


def sweep_grid(cls: Any, args: argparse.Namespace) -> Grid:
    """The sweep the parsed ``sweep`` flags name, over ``cls`` scenarios.

    Axes run in their declared rank (outermost first); an axis no flag set
    takes its declared default.  The base is the grid's first cell.
    """

    ranked = {spec.axis: (f, spec) for f, spec in knobs(cls) if spec.axis is not None}
    axes = tuple(
        (f.name, tuple(getattr(args, f.name) or spec.axis_values or (_flag_default(f, spec),)))
        for f, spec in (ranked[rank] for rank in sorted(ranked))
    )
    scalars = {
        f.name: getattr(args, f.name)
        for f, spec in knobs(cls)
        if spec.sweep and getattr(args, f.name) is not None
    }
    base = decode(cls, scalars | {name: values[0] for name, values in axes})
    return Grid(base, axes)
