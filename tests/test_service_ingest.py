"""Snapshot parsing parity: the single-pass columnar parser against the
generic-parser adapter it replaced.

:func:`oracle_snapshot` is that adapter, kept here as a test oracle:
the generic :func:`repro.obs.parse_openmetrics`, a per-family
``service -> value`` map, and one :class:`SeriesSample` per service.
Every snapshot below must come out of both the same way: the same
services in the same order with bitwise-equal floats, or the same
:class:`IngestError` code and detail.
"""

import random
import struct

import pytest

from repro.obs import parse_openmetrics
from repro.service import (
    IngestError,
    SeriesSample,
    ServiceConfig,
    parse_metrics_snapshot,
)


def _by_service(families: dict, family: str,
                label: str) -> dict[str, float]:
    entry = families.get(family)
    if entry is None:
        return {}
    values: dict[str, float] = {}
    for sample in entry["samples"]:
        service = sample.labels.get(label)
        if service is None:
            raise IngestError(
                "missing-label",
                f"sample {sample.name} lacks the "
                f"{label!r} label identifying its service")
        values[service] = sample.value
    return values


def oracle_snapshot(text: str, config: ServiceConfig
                    ) -> tuple[float | None, dict[str, SeriesSample]]:
    """``(time, series)`` as the generic-parser adapter read them."""
    try:
        families = parse_openmetrics(text)
    except ValueError as exc:
        raise IngestError("bad-openmetrics", str(exc)) from exc
    label = config.service_label
    concurrency = _by_service(families, config.concurrency_family, label)
    rate = _by_service(families, config.rate_family, label)
    utilization = _by_service(families, config.utilization_family, label)
    allocation = _by_service(families, config.allocation_family, label)
    if not concurrency or not rate:
        raise IngestError(
            "missing-family",
            f"snapshot needs non-empty {config.concurrency_family!r} "
            f"and {config.rate_family!r} families (got "
            f"{sorted(families)})")
    series: dict[str, SeriesSample] = {}
    for service in sorted(concurrency.keys() & rate.keys()):
        series[service] = SeriesSample(
            concurrency[service], rate[service],
            utilization.get(service), allocation.get(service))
    if not series:
        raise IngestError(
            "missing-family",
            "concurrency and rate families share no service label")
    for service, value in utilization.items():
        if service not in series:
            series[service] = SeriesSample(
                float("nan"), float("nan"), value,
                allocation.get(service))
    time = None
    clock = families.get(config.time_family)
    if clock is not None and clock["samples"]:
        time = float(clock["samples"][0].value)
    return time, series


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def outcome(parse, text: str, config: ServiceConfig):
    """A parse's result with floats as bit patterns, or its error."""
    try:
        time, series = parse(text, config)
    except IngestError as exc:
        return ("error", exc.code, exc.detail)
    return ("ok", _bits(time),
            [(name, *map(_bits, sample)) for name, sample in series.items()])


def columnar_snapshot(text: str, config: ServiceConfig):
    snapshot = parse_metrics_snapshot(text, config)
    return snapshot.time, snapshot.series


def assert_parity(text: str, config: ServiceConfig | None = None):
    config = config or ServiceConfig()
    expected = outcome(oracle_snapshot, text, config)
    assert outcome(columnar_snapshot, text, config) == expected
    return expected


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def fleet_snapshot(rng: random.Random, series: int, now: float,
                   labels: int = 1) -> list[str]:
    """A fleet scrape in the shape the service benchmarks send: a
    clock, concurrency and goodput for every service, utilization for
    every service (``labels=3`` adds ``pod`` and ``instance``)."""
    names = [f"svc-{index:04d}" for index in range(series)]

    def tags(name: str) -> str:
        if labels == 1:
            return f'{{service="{name}"}}'
        return (f'{{pod="{name}-7f9c",service="{name}",'
                f'instance="10.0.{rng.randrange(256)}.{rng.randrange(256)}'
                f':9090"}}')

    lines = ["# TYPE sora_now gauge", f"sora_now {now:.10g}",
             "# TYPE sora_concurrency gauge"]
    lines += [f"sora_concurrency{tags(name)} "
              f"{1.0 + rng.randrange(20):.10g}" for name in names]
    lines.append("# TYPE sora_goodput gauge")
    lines += [f"sora_goodput{tags(name)} {rng.uniform(0.0, 40.0):.10g}"
              for name in names]
    lines.append("# TYPE sora_utilization gauge")
    lines += [f"sora_utilization{tags(name)} "
              f"{0.75 + 0.2 * rng.random():.10g}" for name in names]
    lines.append("# EOF")
    return lines


def text_of(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("labels", [1, 3])
def test_fleet_snapshots_match_oracle(labels):
    rng = random.Random(labels)
    for step in range(4):
        kind, *_rest = assert_parity(
            text_of(fleet_snapshot(rng, 200, 2.5 * step, labels)))
        assert kind == "ok"


#: Hand-written cases, each named for what it covers.
CASES = {
    "escaped label values": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a\\"b"} 1\n'
        'sora_concurrency{service="c\\\\d"} 2\n'
        'sora_concurrency{service="e\\nf"} 3\n'
        '# TYPE sora_goodput gauge\n'
        'sora_goodput{service="a\\"b"} 4\n'
        'sora_goodput{service="c\\\\d"} 5\n'
        'sora_goodput{service="e\\nf"} 6\n# EOF\n'),
    "brace inside a label value": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a}b"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="a"} 2\n'
        '# EOF\n'),
    "duplicate service keys, last wins": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a",service="b"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="b"} 2\n'
        '# EOF\n'),
    "xservice is not service": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{xservice="a"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="a"} 2\n'
        '# EOF\n'),
    "xservice beside service": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{xservice="a",service="b"} 1\n'
        '# TYPE sora_goodput gauge\n'
        'sora_goodput{service="b",xservice="c"} 2\n# EOF\n'),
    "service inside another label's value": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{pod="service=\\"x\\"",service="y"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="y"} 2\n'
        '# EOF\n'),
    "suffixed samples": (
        '# TYPE sora_concurrency counter\n'
        'sora_concurrency_total{service="a"} 1\n'
        '# TYPE sora_goodput summary\n'
        'sora_goodput_count{service="a"} 2\n'
        'sora_goodput_sum{service="b"} 3\n'
        'sora_goodput{service="b"} 4\n# EOF\n'),
    "suffix of an undeclared base": (
        '# TYPE sora_concurrency_total gauge\n'
        'sora_concurrency_total{service="a"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="a"} 2\n'
        '# EOF\n'),
    "redefined TYPE restarts the family": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency 9\n'
        'sora_concurrency{service="a"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="a"} 2\n'
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="b"} 3\n'
        'sora_goodput{service="b"} 4\n# EOF\n'),
    "redefined clock": (
        '# TYPE sora_now gauge\nsora_now 5\n'
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="a"} 2\n'
        '# TYPE sora_now gauge\n# EOF\n'),
    "HELP, blank lines and CRLF": (
        '# HELP sora_concurrency in flight\r\n\r\n'
        '# TYPE sora_concurrency gauge\r\n'
        'sora_concurrency{service="a"} 1\r\n   \r\n'
        '# TYPE sora_goodput gauge\r\n'
        '# HELP sora_goodput good\r\n'
        'sora_goodput{service="a"} 2\r\n# EOF\r\n'),
    "content after EOF": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n# EOF\nsora_goodput 1\n'),
    "missing EOF": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n'),
    "exemplar suffix": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1 # {trace_id="ab"} 1.5 2.5\n'
        '# TYPE sora_goodput gauge\n'
        'sora_goodput{service="a"} 2 # {trace_id="cd"} 0.5\n# EOF\n'),
    "bad exemplar value": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} abc # {trace_id="ab"} xyz\n'
        '# EOF\n'),
    "special values": (
        '# TYPE sora_now gauge\nsora_now 1_000\n'
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} NaN\n'
        'sora_concurrency{service="b"} +Inf\n'
        'sora_concurrency{service="c"} 1_000\n'
        '# TYPE sora_goodput gauge\n'
        'sora_goodput{service="a"} 1\nsora_goodput{service="b"} -Inf\n'
        'sora_goodput{service="c"} 1e-320\n'
        '# TYPE sora_allocation gauge\n'
        'sora_allocation{service="a"} NaN\n# EOF\n'),
    "unparseable value": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} abc\n# EOF\n'),
    "unparseable value of another family": (
        '# TYPE other gauge\nother abc\n'
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n# EOF\n'),
    "utilization-only services": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="b"} 1\n'
        'sora_concurrency{service="z"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="b"} 2\n'
        'sora_goodput{service="y"} 2\n'
        '# TYPE sora_utilization gauge\n'
        'sora_utilization{service="z"} 0.5\n'
        'sora_utilization{service="b"} 0.9\n'
        'sora_utilization{service="a"} 0.1\n'
        'sora_utilization{service="z"} 0.6\n'
        '# TYPE sora_allocation gauge\n'
        'sora_allocation{service="a"} 3\n'
        'sora_allocation{service="b"} 4.5\n# EOF\n'),
    "missing family": (
        '# TYPE zeta gauge\n# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n# EOF\n'),
    "families share no service": (
        '# TYPE sora_concurrency gauge\n'
        'sora_concurrency{service="a"} 1\n'
        '# TYPE sora_goodput gauge\nsora_goodput{service="b"} 2\n'
        '# EOF\n'),
    "undeclared sample": "sora_concurrency 1\n# EOF\n",
    "bad comment": "# nonsense here\n# EOF\n",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_oracle(name):
    assert_parity(CASES[name])


FAMILIES = ("sora_concurrency", "sora_goodput", "sora_utilization",
            "sora_allocation")


@pytest.mark.parametrize("first,with_rate", [
    (0, True), (1, True), (2, True), (3, True),
    (0, False), (2, False), (3, False)])
def test_missing_label_order(first, with_rate):
    """The first family lacking a label, in the order concurrency →
    rate → utilization → allocation, names the error, and it comes
    before the missing-family check (``with_rate=False`` drops the
    rate family)."""
    lines = []
    for index, family in enumerate(FAMILIES):
        if family == "sora_goodput" and not with_rate:
            continue
        lines += [f"# TYPE {family} gauge", f'{family}{{service="a"}} 1']
        if index >= first:
            lines.append(f'{family}{{pod="p"}} 2')
    lines.append("# EOF")
    kind, code, detail = assert_parity(text_of(lines))
    assert (kind, code) == ("error", "missing-label")
    assert detail.startswith(f"sample {FAMILIES[first]} lacks")


def mutations(rng: random.Random):
    """Edits of one scrape's lines, each a function of the line list."""

    def pick(lines, prefix="sora_"):
        indices = [i for i, line in enumerate(lines)
                   if line.startswith(prefix)]
        return rng.choice(indices) if indices else 0

    def drop_line(lines):
        del lines[pick(lines, "")]

    def duplicate_line(lines):
        index = pick(lines)
        lines.insert(rng.randrange(len(lines)), lines[index])

    def set_value(lines):
        index = pick(lines)
        head = lines[index].rsplit(" ", 1)[0]
        lines[index] = f"{head} " + rng.choice(
            ["NaN", "+Inf", "-Inf", "1_000", "abc", "1e400", "-0", "0x1"])

    def relabel(lines):
        index = pick(lines)
        name, _, rest = lines[index].partition("{")
        if not rest:
            return
        labels, _, value = rest.partition("} ")
        lines[index] = f"{name}{{" + rng.choice([
            'pod="p"', 'xservice="q"', f'{labels},service="dup"',
            f'{labels},pod="a\\"b"', 'service="s}t"',
            'service="new\\\\one"', "", f'{labels} extra']) + f"}} {value}"

    def add_exemplar(lines):
        index = pick(lines)
        lines[index] += rng.choice([' # {trace_id="ab"} 1.5',
                                    ' # {trace_id="ab"} 1.5 7',
                                    ' # {trace_id="ab"} bad'])

    def redeclare(lines):
        lines.insert(rng.randrange(len(lines)),
                     f"# TYPE {rng.choice(FAMILIES + ('sora_now',))} "
                     f"gauge")

    def suffix(lines):
        index = pick(lines)
        name, sep, rest = lines[index].partition("{")
        lines[index] = name + rng.choice(["_total", "_count", "_sum"]) + \
            sep + rest

    def noise(lines):
        lines.insert(rng.randrange(len(lines)), rng.choice(
            ["", "# HELP sora_goodput help text", "   ", "# bogus",
             "# TYPE zeta gauge", "zeta 1"]))

    def move_eof(lines):
        if "# EOF" in lines:
            lines.remove("# EOF")
        if rng.random() < 0.5:
            lines.insert(rng.randrange(len(lines) + 1), "# EOF")

    def drop_family(lines):
        family = rng.choice(FAMILIES)
        lines[:] = [line for line in lines
                    if not line.startswith(family)
                    and line != f"# TYPE {family} gauge"]

    return [drop_line, duplicate_line, set_value, relabel, add_exemplar,
            redeclare, suffix, noise, move_eof, drop_family]


def test_mutation_corpus_matches_oracle():
    rng = random.Random(20231201)
    edits = mutations(rng)
    outcomes = set()
    for case in range(400):
        lines = fleet_snapshot(rng, rng.randrange(1, 8), float(case),
                               labels=rng.choice([1, 3]))
        for edit in rng.sample(edits, rng.randrange(1, 4)):
            edit(lines)
        newline = "\r\n" if rng.random() < 0.1 else "\n"
        result = assert_parity(newline.join(lines) + newline)
        outcomes.add((result[0],
                      result[1] if result[0] == "error" else None))
    # The corpus reaches acceptance and every rejection code.
    assert {kind for kind, _code in outcomes} == {"ok", "error"}
    assert {code for kind, code in outcomes if kind == "error"} == {
        "bad-openmetrics", "missing-family", "missing-label"}
