"""Snapshot parsing parity, against two frozen references.

:func:`oracle_snapshot` is the generic-parser adapter the columnar
parser replaced, kept here as a test oracle: the generic
:func:`repro.obs.parse_openmetrics`, a per-family ``service -> value``
map, and one :class:`SeriesSample` per service. Every snapshot below
must come out of both the same way: the same services in the same order
with bitwise-equal floats, or the same :class:`IngestError` code and
detail.

That oracle runs the same line grammar as the code under test, so the
grammar has its own reference: :func:`reference_scan` is the per-line
:func:`repro.obs.openmetrics.scan_openmetrics` that the whole-text scan
replaced, frozen here. The scanner must yield the same tuples and raise
the same ``ValueError`` text on every text.
"""

import random
import re
import struct

import pytest

from repro.obs import parse_openmetrics
from repro.obs.openmetrics import scan_openmetrics
from repro.service import ingest
from repro.service import (
    IngestError,
    SeriesSample,
    ServiceConfig,
    parse_metrics_snapshot,
)


# ----------------------------------------------------------------------
# The frozen per-line scanner
# ----------------------------------------------------------------------
_REFERENCE_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+#\s+\{(?P<exlabels>[^}]*)\}\s+(?P<exvalue>\S+)"
    r"(?:\s+(?P<exts>\S+))?)?\s*$")


def reference_scan(text: str):
    """The line grammar as one ``match`` per line, frozen as it was
    before the whole-text scan."""
    declared: set[str] = set()
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "EOF":
                saw_eof = True
            elif len(parts) >= 4 and parts[1] == "TYPE":
                declared.add(parts[2])
                yield parts[2], parts[3], None, 0.0, None
            elif len(parts) >= 2 and parts[1] == "HELP":
                continue
            else:
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            continue
        match = _REFERENCE_SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        fields = match.groups()
        name, _labels, value, _exlabels, exvalue, exts = fields
        exemplar = None
        if exvalue is not None:
            exemplar = (float(exvalue),
                        float(exts) if exts is not None else None)
        family = name
        if name.endswith(("_total", "_count", "_sum")):
            base = name[:name.rindex("_")]
            if base in declared:
                family = base
        if family not in declared:
            raise ValueError(
                f"line {lineno}: sample {name!r} without # TYPE")
        yield family, None, fields, float(value), exemplar
    if not saw_eof:
        raise ValueError("missing # EOF terminator")


def _exact(item):
    """``item`` with every float as its bit pattern (NaN equals NaN)."""
    if isinstance(item, float):
        return struct.pack("<d", item)
    if isinstance(item, tuple):
        return tuple(_exact(part) for part in item)
    return item


def scanned(scan, text: str):
    """Every tuple a scan yields, then its error text (or ``None``)."""
    out = []
    try:
        for item in scan(text):
            out.append(_exact(item))
    except ValueError as exc:
        return out, str(exc)
    return out, None


def assert_scan_parity(text: str):
    expected = scanned(reference_scan, text)
    assert scanned(scan_openmetrics, text) == expected
    return expected


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
    assert_scan_parity(CASES[name])
    assert_parity(CASES[name])


def test_label_memo_stays_bounded_and_keyed_by_label(monkeypatch):
    """The memo of label text -> service never outgrows LABEL_MEMO, and a
    config with another service label reads its own label."""
    monkeypatch.setattr(ingest, "LABEL_MEMO", 3)
    text = text_of(fleet_snapshot(random.Random(5), 10, 1.0, labels=3))
    assert assert_parity(text)[0] == "ok"
    assert [len(memo) <= 3 for memo in ingest._SERVICES.values()] == [True]
    assert assert_parity(text, ServiceConfig(service_label="pod"))[0] == "ok"
    assert list(ingest._SERVICES) == ["pod"]


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
    """Both oracles, the snapshot adapter and the frozen scanner, on
    400 randomly edited fleet scrapes."""
    rng = random.Random(20231201)
    edits = mutations(rng)
    outcomes = set()
    for case in range(400):
        lines = fleet_snapshot(rng, rng.randrange(1, 8), float(case),
                               labels=rng.choice([1, 3]))
        for edit in rng.sample(edits, rng.randrange(1, 4)):
            edit(lines)
        newline = "\r\n" if rng.random() < 0.1 else "\n"
        text = newline.join(lines) + newline
        assert_scan_parity(text)
        result = assert_parity(text)
        outcomes.add((result[0],
                      result[1] if result[0] == "error" else None))
    # The corpus reaches acceptance and every rejection code.
    assert {kind for kind, _code in outcomes} == {"ok", "error"}
    assert {code for kind, code in outcomes if kind == "error"} == {
        "bad-openmetrics", "missing-family", "missing-label"}


# ----------------------------------------------------------------------
# The whole-text scan against the frozen per-line scanner
# ----------------------------------------------------------------------
_BASE = ['# TYPE a gauge', 'a{x="1"} 1', '# HELP a help text',
         '# TYPE b counter', 'b_total{x="2",y="3"} 2 # {trace_id="ab"} 1.5 3',
         'b_total 4 # {} 5', '# EOF']

#: Every line break ``str.splitlines`` knows, alone and as CRLF.
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", SEPARATORS, ids=repr)
def test_every_line_break_scans_like_the_reference(separator):
    items, error = assert_scan_parity(separator.join(_BASE) + separator)
    assert error is None and len(items) == 5
    # A break inside a label value splits the sample line in two.
    text = separator.join(_BASE).replace('x="1"', f'x="1{separator}"')
    assert assert_scan_parity(text)[1].startswith("line 2: bad sample")


#: Unicode whitespace, braces, ``# EOF`` and comment corners, and texts
#: with two faults (the first in line order must win).
SCAN_CASES = {
    "tabs": '# TYPE a gauge\na{x="1"}\t1\t#\t{y="2"}\t3\t4\t\n# EOF\n',
    "NBSP as a separator": "#\xa0TYPE\xa0a\xa0gauge\na\xa01\xa0\n# EOF\n",
    "NBSP before a sample": "# TYPE a gauge\n\xa0a 1\n# EOF\n",
    "whitespace-only lines": "\t\n \xa0\x1f\u3000\n# TYPE a gauge\n  \na 1\n"
                             "\t\n# EOF\n\xa0\n",
    "brace inside a label value": '# TYPE a gauge\na{x="}"} 1\n# EOF\n',
    "brace inside an exemplar label": (
        '# TYPE a gauge\na 1 # {x="}"} 2\n# EOF\n'),
    "empty labels": "# TYPE a gauge\na{} 1\n# EOF\n",
    "content after EOF": "# TYPE a gauge\n# EOF\n\n  \na 1\n",
    "comment after EOF": "# EOF\n# HELP a text\n",
    "blank after EOF": "# TYPE a gauge\na 1\n# EOF\n \t\n\n",
    "bad line after EOF": "# TYPE a gauge\n# EOF\na{ 1\n",
    "EOF with text": "# TYPE a gauge\na 1\n# EOF trailing words\n",
    "no trailing newline": "# TYPE a gauge\na 1\n# EOF",
    "empty text": "",
    "only whitespace": "  \n\t\n",
    "bare hash": "#\n# EOF\n",
    "EOF without space": "#EOF\n",
    "TYPE without a kind": "# TYPE a\n# EOF\n",
    "TYPE kind with spaces": "# TYPE a gauge  kind \t\na 1\n# EOF\n",
    "HELP alone": "# HELP\n# EOF\n",
    "indented comment": "  # TYPE a gauge\n# EOF\n",
    "suffix redeclared": ("# TYPE a_total gauge\na_total 1\n# TYPE a counter\n"
                          "a_total 2\na_count 3\n# EOF\n"),
    "bad value before bad comment": (
        "# TYPE a gauge\na abc\n# nonsense\n# EOF\n"),
    "bad comment before bad value": (
        "# TYPE a gauge\n# nonsense\na abc\n# EOF\n"),
    "bad value before bad sample": "# TYPE a gauge\na abc\na{ 1\n# EOF\n",
    "bad sample before bad value": "# TYPE a gauge\na{ 1\na abc\n# EOF\n",
    "undeclared before bad sample": "zzz 1\na{ 1\n# EOF\n",
    "bad exemplar of an undeclared sample": 'zzz 1 # {x="1"} bad\n# EOF\n',
    "undeclared sample with a bad value": "zzz abc\n# EOF\n",
    "bad timestamp before bad value": (
        '# TYPE a gauge\na 1 # {x="1"} 2 bad\na abc\n# EOF\n'),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_case_scans_like_the_reference(name):
    assert_scan_parity(SCAN_CASES[name])


def test_random_texts_scan_like_the_reference():
    """Lines built from the grammar's tokens, joined by any line break."""
    rng = random.Random(7)
    pieces = ["a", "a_total", "b", "b_sum", "{", "}", '{x="1"}',
              '{x="}"}', "{}", " ", "\t", "\xa0", "#", "# TYPE", "# HELP",
              "# EOF", "gauge", "1", "-2.5e3", "NaN", "+Inf", "abc", "1_0",
              '# {t="ab"}', "\\", '"', "=", ","]
    outcomes = set()
    for _case in range(600):
        lines = ["# TYPE a gauge", "# TYPE b summary"]
        for _line in range(rng.randrange(1, 6)):
            lines.append("".join(rng.choice(pieces)
                                 for _ in range(rng.randrange(0, 7))))
        if rng.random() < 0.7:
            lines.insert(rng.randrange(len(lines) + 1), "# EOF")
        separator = rng.choice(SEPARATORS)
        _items, error = assert_scan_parity(separator.join(lines)
                                          + rng.choice(["", separator]))
        outcomes.add(error.split(":")[1].split()[0] if error and
                     error.startswith("line") else error)
    assert None in outcomes and len(outcomes) > 4
