"""Counters, gauges, histograms — the run-level numbers layer.

A :class:`MetricsRegistry` holds named metric families; each family
fans out into children keyed by label values.  Everything is plain
Python arithmetic driven by the virtual clock's *callers* (the registry
itself never reads any clock), so recording a metric can neither
advance virtual time nor consume randomness — the substrate of the
"observability is provably off-path" guarantee.

Two export formats:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines with
  escaped label values), deterministically ordered.
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict for run reports.

:func:`parse_prometheus` parses exactly the dialect we emit, so the
escaping round-trip is testable property-style: any label value must
survive ``render -> parse`` losslessly.

Every metric *name* used in the package must be declared in
:mod:`repro.obs.registry`; :class:`repro.obs.Observability` refuses an
undeclared name or a wrong kind when the instrument is wired.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in virtual seconds: resolution latencies
#: span "cache hit" (0) to "walked a dead delegation" (tens of seconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Ints render as ints so counters stay readable; floats use repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _NullInstrument:
    """Absorbs every metric operation; the disabled-registry child."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **label_values: str) -> "_NullInstrument":
        return self


NULL_INSTRUMENT = _NullInstrument()


@dataclass
class _Sample:
    """One exposition line: name suffix, labels, value."""

    suffix: str
    labels: tuple[tuple[str, str], ...]
    value: float


class _Child:
    """One (family, label values) time series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class _HistogramChild:
    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        # Per-bucket (non-cumulative) storage; the exposition cumulates.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                break


class MetricFamily:
    """A named metric plus all its labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], _Child | _HistogramChild] = {}
        if not self.label_names:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        if self.kind == "histogram":
            return _HistogramChild(self.buckets)
        return _Child()

    def labels(self, **label_values: str):
        values = tuple(
            str(label_values.get(label, "")) for label in self.label_names
        )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    # Unlabeled convenience passthroughs.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self.labels().set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self.labels().observe(value)  # type: ignore[union-attr]

    # -- export ------------------------------------------------------------

    def _samples(self) -> list[_Sample]:
        samples: list[_Sample] = []
        for values in sorted(self._children):
            child = self._children[values]
            labels = tuple(zip(self.label_names, values))
            if isinstance(child, _HistogramChild):
                cumulative = 0
                for bound, bucket in zip(child.bounds, child.bucket_counts):
                    cumulative += bucket
                    samples.append(
                        _Sample(
                            "_bucket",
                            labels + (("le", _format_value(bound)),),
                            cumulative,
                        )
                    )
                samples.append(
                    _Sample("_bucket", labels + (("le", "+Inf"),), child.count)
                )
                samples.append(_Sample("_sum", labels, child.total))
                samples.append(_Sample("_count", labels, child.count))
            else:
                samples.append(_Sample("", labels, child.value))
        return samples

    def snapshot(self) -> dict:
        series = []
        for values in sorted(self._children):
            child = self._children[values]
            labels = dict(zip(self.label_names, values))
            if isinstance(child, _HistogramChild):
                series.append(
                    {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.total,
                        "buckets": {
                            _format_value(b): c
                            for b, c in zip(child.bounds, child.bucket_counts)
                        },
                    }
                )
            else:
                series.append({"labels": labels, "value": child.value})
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help_text,
            "series": series,
        }


class MetricsRegistry:
    """All metric families for one run, in registration order.

    ``MetricsRegistry(enabled=False)`` is the null registry: every
    instrument lookup returns a shared no-op object, nothing is stored,
    and every export is empty — the metrics half of the null sink.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not self.enabled:
            return NULL_INSTRUMENT
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text, label_names, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ):
        return self._family(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ):
        return self._family(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        return self._family(name, "histogram", help_text, labels, buckets)

    # -- export ------------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, deterministically ordered."""
        lines: list[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {escape_help(family.help_text)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample in family._samples():
                label_text = ""
                if sample.labels:
                    inner = ",".join(
                        f'{key}="{escape_label_value(value)}"'
                        for key, value in sample.labels
                    )
                    label_text = "{" + inner + "}"
                lines.append(
                    f"{family.name}{sample.suffix}{label_text}"
                    f" {_format_value(sample.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        return {
            "format": "repro-metrics/v1",
            "metrics": [family.snapshot() for family in self.families()],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Exposition parser (the round-trip half)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedSample:
    """One parsed exposition line."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass
class ParsedExposition:
    """A parsed text exposition: types, helps, and samples in order."""

    types: dict[str, str]
    helps: dict[str, str]
    samples: list[ParsedSample]

    def value(self, name: str, **labels: str) -> float | None:
        wanted = tuple(sorted(labels.items()))
        for sample in self.samples:
            if sample.name == name and tuple(sorted(sample.labels)) == wanted:
                return sample.value
        return None


class ExpositionParseError(ValueError):
    pass


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    """Parse the inside of ``{...}`` honouring escaped quotes."""
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip()
        if not _LABEL_RE.match(name) and name != "le":
            raise ExpositionParseError(f"bad label name {name!r}")
        if eq + 1 >= len(text) or text[eq + 1] != '"':
            raise ExpositionParseError("label value must be quoted")
        j = eq + 2
        raw: list[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\" and j + 1 < len(text):
                raw.append(text[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ExpositionParseError("unterminated label value")
        labels.append((name, unescape_label_value("".join(raw))))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
        i = i if i >= len(text) or text[i] != " " else i + 1
    return tuple(labels)


def parse_prometheus(text: str) -> ParsedExposition:
    """Parse the exposition dialect :meth:`MetricsRegistry.render_prometheus` emits."""
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: list[ParsedSample] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = unescape_label_value(help_text)
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ExpositionParseError(f"unbalanced braces: {line!r}")
            name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close])
            value_text = line[close + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
            value_text = value_text.strip()
        if not _NAME_RE.match(name.rstrip()):
            raise ExpositionParseError(f"bad metric name in {line!r}")
        try:
            value = float(value_text) if value_text != "+Inf" else float("inf")
        except ValueError as exc:
            raise ExpositionParseError(f"bad value in {line!r}") from exc
        samples.append(ParsedSample(name.rstrip(), labels, value))
    return ParsedExposition(types=types, helps=helps, samples=samples)
