"""Property tests for ``# repro: allow[rule]`` suppression parsing.

The marker grammar is small but load-bearing: a parsing gap either
lets a violation hide (marker silently ignored at enforcement time but
trusted by a reader) or poisons the unused-suppression hygiene check.
Hypothesis drives the grammar through whitespace, multi-rule, inline
and standalone forms.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import _Suppressions
from repro.analysis.findings import Finding

RULE_NAME = st.from_regex(r"[a-z][a-z0-9-]{0,14}", fullmatch=True)
RULE_NAMES = st.lists(RULE_NAME, min_size=1, max_size=3, unique=True)
WS = st.sampled_from(["", " ", "  ", "\t"])


def render_marker(rules, ws1, ws2, ws3, sep_ws):
    body = ("," + sep_ws).join(rules)
    return f"#{ws1}repro:{ws2}allow[{ws3}{body}{ws3}]"


@given(rules=RULE_NAMES, ws1=WS, ws2=WS, ws3=WS, sep_ws=WS,
       other=RULE_NAME)
@settings(max_examples=200)
def test_inline_marker_round_trips_every_named_rule(
    rules, ws1, ws2, ws3, sep_ws, other
):
    marker = render_marker(rules, ws1, ws2, ws3, sep_ws)
    source = f"x = 1  {marker}\n"
    suppressions = _Suppressions(source)
    for rule in rules:
        assert suppressions.suppresses(
            Finding(rule=rule, message="m", path="f.py", line=1)
        ), marker
    if other not in rules:
        assert not suppressions.suppresses(
            Finding(rule=other, message="m", path="f.py", line=1)
        )


@given(rules=RULE_NAMES, ws1=WS, ws2=WS, ws3=WS, sep_ws=WS)
@settings(max_examples=100)
def test_standalone_marker_covers_the_next_line(rules, ws1, ws2, ws3, sep_ws):
    marker = render_marker(rules, ws1, ws2, ws3, sep_ws)
    source = f"{marker}\ny = 2\n"
    suppressions = _Suppressions(source)
    for rule in rules:
        assert suppressions.suppresses(
            Finding(rule=rule, message="m", path="f.py", line=2)
        ), marker
    # The marker's own line is covered too (inline-on-comment form).
    assert _Suppressions(source).suppresses(
        Finding(rule=rules[0], message="m", path="f.py", line=1)
    )


@given(rules=RULE_NAMES, ws1=WS, ws2=WS, ws3=WS, sep_ws=WS)
@settings(max_examples=100)
def test_unused_markers_are_each_reported_once(rules, ws1, ws2, ws3, sep_ws):
    marker = render_marker(rules, ws1, ws2, ws3, sep_ws)
    suppressions = _Suppressions(f"x = 1  {marker}\n")
    unused = list(suppressions.unused("f.py"))
    # One report per named rule, all anchored at the marker line; the
    # rule name survives parsing verbatim (round-trip).
    assert len(unused) == len(rules)
    assert all(f.line == 1 for f in unused)
    for rule in rules:
        assert any(f"allow[{rule}]" in f.message for f in unused)


@given(rules=RULE_NAMES, ws1=WS, ws2=WS, ws3=WS, sep_ws=WS)
@settings(max_examples=100)
def test_used_rule_drops_out_of_unused_report(rules, ws1, ws2, ws3, sep_ws):
    marker = render_marker(rules, ws1, ws2, ws3, sep_ws)
    suppressions = _Suppressions(f"x = 1  {marker}\n")
    used = rules[0]
    assert suppressions.suppresses(
        Finding(rule=used, message="m", path="f.py", line=1)
    )
    leftover = {f.message.split("allow[", 1)[1].split("]")[0]
                for f in suppressions.unused("f.py")}
    assert leftover == set(rules) - {used}


def test_marker_text_inside_a_string_is_not_a_suppression():
    source = 's = "# repro: allow[wall-clock]"\n'
    suppressions = _Suppressions(source)
    assert not suppressions.suppresses(
        Finding(rule="wall-clock", message="m", path="f.py", line=1)
    )


def test_known_but_inactive_rule_is_exempt_unknown_is_not():
    source = (
        "a = 1  # repro: allow[seed-domain-taint]\n"
        "b = 2  # repro: allow[not-a-real-rule]\n"
    )
    suppressions = _Suppressions(source)
    # seed-domain-taint is in the catalog but not active this run: exempt.
    # The typo is not in the catalog: always reported.
    unused = list(suppressions.unused("f.py", active=frozenset({"wall-clock"})))
    assert len(unused) == 1
    assert "not-a-real-rule" in unused[0].message
