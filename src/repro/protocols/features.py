"""The one grammar every node-runtime feature spec is parsed with.

Hardening, validation, pacing, graceful restart and the perf fast paths
are each a set of individually switchable features.  A user-facing spec
names which are on:

* ``None``, ``""``, ``"none"`` or ``"off"`` -- none of them;
* ``"all"`` or ``"full"`` -- every one;
* a feature name, a ``+``- or ``,``-joined list of names, or an iterable
  of names.  Dashes may stand for underscores (CLI friendliness).

Unknown names raise :class:`ValueError`.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

OFF_WORDS = ("", "none", "off")
ALL_WORDS = ("all", "full")


def feature_names(
    value: Union[None, str, Iterable[str]], features: Tuple[str, ...], what: str
) -> Tuple[str, ...]:
    """The features ``value`` switches on, in the order given."""
    if value is None:
        return ()
    if isinstance(value, str):
        value = value.strip()
        if value in OFF_WORDS:
            return ()
        if value in ALL_WORDS:
            return features
        value = value.replace("+", ",").split(",")
    names = tuple(n.strip().replace("-", "_") for n in value if n.strip())
    unknown = [n for n in names if n not in features]
    if unknown:
        raise ValueError(f"unknown {what} feature(s) {unknown}; choose from {features}")
    return names
