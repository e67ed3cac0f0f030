import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intervalpath.errors import (
    DegenerateInterval,
    DuplicateEndpoint,
    DuplicateVertexId,
    EmptySet,
    IntervalError,
    ParseError,
)
from helpers import bench_text, heavy_tailed, small_combs
from intervalpath.generators import GeneratorSpec, generate
from intervalpath import intervals
from intervalpath.intervals import (
    _parse_lines,
    build,
    format_intervals,
    fresh_name,
    from_endpoint_order,
    nesting,
    normalize_endpoints,
    parse_intervals,
    span,
)


def names_in_sigma(g):
    return [g.names[v] for v in g.sigma]


def edge_set(g):
    return {
        frozenset((g.names[u], g.names[v]))
        for u in range(g.n)
        for v in g.neighbors(u)
        if u < v
    }


def test_build_path3(path3):
    assert edge_set(path3) == {frozenset("ab"), frozenset("bc")}
    assert names_in_sigma(path3) == ["a", "b", "c"]


def test_build_claw4(claw4):
    assert edge_set(claw4) == {
        frozenset(("u", "v1")),
        frozenset(("u", "v2")),
        frozenset(("u", "v3")),
    }
    assert names_in_sigma(claw4) == ["v1", "v2", "u", "v3"]


def test_build_single_interval():
    g = build([("x", 0, 1)])
    assert g.edge_count() == 0
    assert names_in_sigma(g) == ["x"]


def test_build_rejects_duplicate_endpoint():
    with pytest.raises(DuplicateEndpoint):
        build([("a", 1, 4), ("b", 4, 6)])


def test_build_rejects_degenerate():
    with pytest.raises(DegenerateInterval):
        build([("a", 3, 3)])
    with pytest.raises(DegenerateInterval):
        build([("a", 5, 2)])


def test_build_rejects_duplicate_name():
    with pytest.raises(DuplicateVertexId):
        build([("a", 1, 2), ("a", 3, 4)])


def test_span(path3, claw4):
    assert span(path3, ["a", "b", "c"]) == (1, 8)
    assert span(claw4, ["v2"]) == (4, 5)
    assert span(claw4, ["v1", "v3"]) == (0, 9)


def test_span_empty(path3):
    with pytest.raises(EmptySet):
        span(path3, [])


def test_normalize_endpoints_path3(path3):
    g = normalize_endpoints(path3)
    assert g.records() == [("a", 1, 3, 1), ("b", 2, 5, 1), ("c", 4, 6, 1)]


def test_normalize_endpoints_claw4(claw4):
    g = normalize_endpoints(claw4)
    got = {nm: (l, r) for nm, l, r, _ in g.records()}
    assert got == {"v1": (1, 3), "u": (2, 7), "v2": (4, 5), "v3": (6, 8)}


def test_normalize_endpoints_idempotent(path3):
    once = normalize_endpoints(path3)
    twice = normalize_endpoints(once)
    assert once.records() == twice.records()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 12))
def test_normalize_preserves_structure(seed, n):
    g = generate(GeneratorSpec(kind="random", n=n, seed=seed))
    h = normalize_endpoints(g)
    assert edge_set(g) == edge_set(h)
    assert names_in_sigma(g) == names_in_sigma(h)
    assert sorted(h.left + h.right) == list(range(1, 2 * n + 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 30))
def test_endpoint_order_answers_match_pairwise_checks(seed, n):
    """Order, positions, edge count, nesting, properness and neighbor lists,
    all read off one endpoint sweep, against the pairwise definitions."""
    g = heavy_tailed(n, seed)
    order, pos = g.endpoint_order(), g.endpoint_positions()
    ends = [g.right[t >> 1] if t & 1 else g.left[t >> 1] for t in order]
    assert ends == sorted(g.left + g.right)
    assert all(order[p] == t for t, p in enumerate(pos))
    assert g.edge_count() == sum(g.adjacent(u, v) for u in range(n) for v in range(u))
    assert nesting(order, pos) == [
        any(g.contains_interval(u, v) for v in range(n)) for u in range(n)
    ]
    assert (not any(nesting(order, pos))) == (
        not any(g.contains_interval(u, v) for u in range(n) for v in range(n))
    )
    for v in range(n):
        want = [w for w in g.sigma if g.adjacent(v, w)]
        assert g.neighbors(v) == want


def test_from_endpoint_order_keeps_the_order_it_is_given(claw4):
    order = claw4.endpoint_order()
    h = from_endpoint_order(claw4.names, order, claw4.weight)
    assert h.records() == normalize_endpoints(claw4).records()
    assert h.endpoint_order() is order
    assert [h.left[v] for v in range(h.n)] == [p + 1 for p in h.endpoint_positions()[0::2]]


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(24)), n=st.integers(0, 12))
def test_from_endpoint_order_sigma_is_the_right_endpoint_sort(order, n):
    """Any order of 2n tokens with each left end before its right end."""
    order = [t for t in order if t < 2 * n]
    seen = set()
    for p, t in enumerate(order):
        if t >> 1 not in seen:
            order[p] = t & ~1  # the first of v's two tokens is its left end
        else:
            order[p] = t | 1
        seen.add(t >> 1)
    h = from_endpoint_order([f"v{v}" for v in range(n)], order, [1] * n)
    assert h.sigma == sorted(range(n), key=h.right.__getitem__)
    assert h.rank == [h.sigma.index(v) for v in range(n)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(3, 12))
def test_umbrella_property(seed, n):
    """For sigma-ordered u < v < w, an edge uw forces the edge vw."""
    g = generate(GeneratorSpec(kind="random", n=n, seed=seed))
    order = g.sigma
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                u, v, w = order[a], order[b], order[c]
                if g.adjacent(u, w):
                    assert g.adjacent(v, w)


def test_parse_format_round_trip(path3):
    text = format_intervals(path3)
    again = parse_intervals(text)
    assert again.records() == path3.records()


def test_format_weighted_round_trip():
    g = build([("x", 1, 4, Fraction(5, 4)), ("y", 2, 6, Fraction(3, 1))])
    again = parse_intervals(format_intervals(g))
    assert again.records() == g.records()


@pytest.mark.parametrize(
    "text, want, kind",
    [("1\nx 1 4 6 2\n", 3, int), ("1\nx 1 4 3 2\n", Fraction(3, 2), Fraction)],
)
def test_parse_weight_is_an_int_when_integral(text, want, kind):
    (w,) = parse_intervals(text).weight
    assert w == want and type(w) is kind


def test_build_stores_a_float_weight_exactly():
    (w,) = build([("x", 1, 4, 0.5)]).weight
    assert w == Fraction(1, 2) and type(w) is Fraction


def test_parse_skips_comments_and_blank_lines():
    g = parse_intervals("# header\n2\n\na 1 4\n# middle\nb 3 6\n")
    assert [nm for nm, *_ in g.records()] == ["a", "b"]


# Texts that parse but fail a check of every input, with the error raised;
# every other text of test_parse_errors is malformed (ParseError).
INVALID_TEXTS = {
    "2\na 1 4\na 5 8\n": DuplicateVertexId,
    "2\na 1 4\nb 4 8\n": DuplicateEndpoint,
    "2\na 1 4\nb 6 6\n": DegenerateInterval,
    "1\na 5 2\n": DegenerateInterval,
}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\na 1 4\n",
        "1\na 1\n",
        "1\na one 4\n",
        "1\na 1 4 3\n",
        "1\na 1 4 3 0\n",
        "x\na 1 4\n",
        "1\na 1 4 -3 2\n",
        "2\na 1 4\nb 2 5 1 -1\n",
        *INVALID_TEXTS,
    ],
)
def test_parse_errors(text):
    with pytest.raises(INVALID_TEXTS.get(text, ParseError)):
        parse_intervals(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 4\n", "bad vertex count line: '3 4'"),
        ("2\na 1 4\n", "expected 2 interval lines, found 1"),
        ("2\na  1 4 # c\nb 2\n", "bad interval line: 'b 2'"),
        ("2\nb 2 x\na 1\n", "bad interval line: 'b 2 x'"),
        ("1\na 1 4 -3 2\n", "negative weight for 'a'"),
    ],
)
def test_parse_error_names_the_first_bad_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_intervals(text)
    assert str(err.value) == message


def _weighted(g, seed):
    rng = random.Random(seed)
    weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(g.n)]
    return build([(nm, l, r, w) for (nm, l, r, _), w in zip(g.records(), weights)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 40), weighted=st.booleans())
def test_parse_matches_build_on_generated_graphs(seed, n, weighted):
    """The parser builds the graph ``build`` builds from the same records."""
    g = generate(GeneratorSpec(kind="random", n=n, seed=seed))
    if weighted:
        g = _weighted(g, seed)
    got, want = parse_intervals(format_intervals(g)), build(g.records())
    assert got.records() == want.records()
    assert got.endpoint_order() == want.endpoint_order()
    assert got.sigma == want.sigma
    assert dict(got.index) == dict(want.index) == {nm: v for v, nm in enumerate(g.names)}


def _parsed(parse, text):
    """What ``parse`` makes of ``text``: the graph's records, weight types,
    endpoint order and name index, or the class and message it raised."""
    try:
        g = parse(text)
    except IntervalError as exc:
        return type(exc), str(exc)
    return g.records(), [type(w) for w in g.weight], g.endpoint_order(), dict(g.index)


def _replace_one(text, rng, old, new):
    """``text`` with one occurrence of ``old``, picked by ``rng``, made ``new``."""
    spots = [i for i in range(len(text)) if text.startswith(old, i)]
    if not spots:
        return text
    i = rng.choice(spots)
    return text[:i] + new + text[i + len(old):]


def _edit_line(text, rng, edit):
    """``text`` with ``edit`` applied to the tokens of one data line."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines[1:], 1) if len(line.split(" ")) >= 3]
    if not rows:
        return text
    i = rng.choice(rows)
    lines[i] = " ".join(edit(lines[i].split(" "), rng))
    return "\n".join(lines)


def _insert(text, rng, new):
    """``new`` put in at a position of ``text`` picked by ``rng``."""
    i = rng.randrange(len(text) + 1)
    return text[:i] + new + text[i:]


def _move_token(text, rng, forward):
    """One token moved across a line break: the last token of a data line to
    the start of the next (a 2 + 4 split) or back (4 + 2)."""
    lines = text.split("\n")
    rows = [i for i in range(1, len(lines) - 1) if lines[i] and lines[i + 1]]
    if not rows:
        return text
    i = rng.choice(rows)
    a, b = lines[i].split(" "), lines[i + 1].split(" ")
    if forward:
        a, b = a[:-1], a[-1:] + b
    else:
        a, b = a + b[:1], b[1:]
    lines[i], lines[i + 1] = " ".join(a), " ".join(b)
    return "\n".join(lines)


def _coordinate(spell):
    """Respell one coordinate of one data line, if it is still an integer."""
    def edit(toks, rng):
        j = rng.choice((1, 2))
        if re.fullmatch("-?[0-9]+", toks[j]):
            toks[j] = spell(toks[j])
        return toks
    return lambda text, rng: _edit_line(text, rng, edit)


def _count_line(spell):
    """Respell the count: the digits the file starts with, if any."""
    return lambda text, rng: re.sub(r"\A[0-9]+", lambda m: spell(m.group()), text)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Edits of a plain file, each of which the per-line parser reads its own way.
PERTURBATIONS = {
    "tab": lambda t, rng: _replace_one(t, rng, " ", "\t"),
    "run of spaces": lambda t, rng: _replace_one(t, rng, " ", "  "),
    "crlf": lambda t, rng: t.replace("\n", "\r\n"),
    "bare cr": lambda t, rng: _replace_one(t, rng, "\n", "\r"),
    "vertical tab": lambda t, rng: _replace_one(t, rng, rng.choice(" \n"), "\x0b"),
    "file separator": lambda t, rng: _replace_one(t, rng, rng.choice(" \n"), "\x1c"),
    "line separator": lambda t, rng: _replace_one(t, rng, rng.choice(" \n"), "\u2028"),
    "blank line": lambda t, rng: _replace_one(t, rng, "\n", "\n\n"),
    "leading whitespace": lambda t, rng: rng.choice((" ", "\n", "\t")) + t,
    "trailing whitespace": lambda t, rng: t + rng.choice((" ", "\n", " \n")),
    "no final newline": lambda t, rng: t.rstrip("\n"),
    "comment": lambda t, rng: _replace_one(t, rng, rng.choice(" \n"), rng.choice(("#c ", " # c\n", "#\n"))),
    "hash anywhere": lambda t, rng: _insert(t, rng, "#"),
    "2 + 4 split": lambda t, rng: _move_token(t, rng, True),
    "4 + 2 split": lambda t, rng: _move_token(t, rng, False),
    "count 03": _count_line(lambda c: "0" + c),
    "count +3": _count_line(lambda c: "+" + c),
    "count with extra token": _count_line(lambda c: c + " x"),
    "wrong count": _count_line(lambda c: str(int(c) + 1)),
    "count one short": _count_line(lambda c: str(int(c) - 1)),
    "weighted line": lambda t, rng: _edit_line(t, rng, lambda toks, r: toks + [r.choice(("3 2", "0 1", "-1 2"))]),
    "coordinate +5": _coordinate(lambda c: "+" + c),
    "coordinate 1_000": _coordinate(lambda c: c[0] + "_" + c[1:] if len(c) > 1 else c + "_0"),
    "coordinate ٣": _coordinate(lambda c: c.translate(ARABIC_INDIC)),
    "coordinate 0x1": _coordinate(lambda c: hex(int(c))),
}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 8),
    edits=st.lists(st.sampled_from(sorted(PERTURBATIONS)), max_size=3),
)
def test_parse_matches_the_per_line_reference_on_perturbed_files(seed, n, edits):
    """Plain files and every perturbation of them parse as the per-line
    parser parses them: the same graph, or the same error and message."""
    rng = random.Random(seed)
    text = format_intervals(generate(GeneratorSpec(kind="random", n=n, seed=seed)))
    for edit in edits:
        text = PERTURBATIONS[edit](text, rng)
    assert _parsed(parse_intervals, text) == _parsed(_parse_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0",
        "0\n",
        "00\n",
        "2\na 1 4\nb 2 5\n",
        "2\na 1 4\nb 2 5",
        "2\na 1\n4 b 2 5\n",
        "2\na 1 4 b\n2 5\n",
        "2\na\n1 4 b 2 5\n",
        "3\na 1 4\nb 2 5\n",
        "1\na 1 4\nb 2 5\n",
        "02\na 1 4\nb 2 5\n",
        "+2\na 1 4\nb 2 5\n",
        "2 x\na 1 4\nb 2 5\n",
        "2\na#x 1 4\nb 2 5\n",
        "2\na 1 4#\nb 2 5\n",
        "2\na\t1 4\nb 2 5\n",
        "2\na  1 4\nb 2 5\n",
        "2\r\na 1 4\r\nb 2 5\r\n",
        "2\na 1 4\rb 2 5\n",
        "2\na\x0b1 4\nb 2 5\n",
        "2\na 1 4\x1cb 2 5\n",
        "2\na 1 4 b 2 5\n",
        "2\na 1 4\n\nb 2 5\n",
        "\n2\na 1 4\nb 2 5\n",
        " 2\na 1 4\nb 2 5\n",
        "2\na 1 4\nb 2 5\n ",
        "2\na 1 4\nb 2 5\n\n",
        "2\na 1 4 3 2\nb 2 5\n",
        "2\na +1 4\nb 2 5\n",
        "2\na 1_0 40\nb 2 50\n",
        "2\na ٣ 4\nb 2 5\n",
        "2\na 0x1 4\nb 2 5\n",
        "2\na -3 4\nb -0 5\n",
        "2\na 007 4\nb 2 5\n",
        "2\na 1 4\na 2 5\n",
        "2\na 1 4\nb 4 5\n",
        "2\na 4 1\nb 2 5\n",
        "1\na 1 " + "1" * 5000 + "\n",
    ],
)
def test_parse_matches_the_per_line_reference(text):
    assert _parsed(parse_intervals, text) == _parsed(_parse_lines, text)


def test_plain_files_take_the_one_split_path(monkeypatch):
    """Unweighted generated files and the benchmark's solve texts parse
    without the per-line path, to the graph the per-line path makes."""

    def per_line(text):
        raise AssertionError("a plain file took the per-line path")

    texts = [
        format_intervals(generate(GeneratorSpec(kind=kind, n=n, k=3, seed=7)))
        for kind in ("random", "proper", "planted")
        for n in (15, 40, 300)
    ]
    for kind, n in (("planted", 2500), ("random", 48)):
        g = generate(GeneratorSpec(kind=kind, n=n, k=3, seed=1))
        texts.append(bench_text([(nm, l, r) for nm, l, r, _ in g.records()]))
    texts += [bench_text([(nm, l, r) for nm, l, r, _ in g.records()]) for g in small_combs(3)]
    monkeypatch.setattr(intervals, "_parse_lines", per_line)
    for text in texts:
        assert _parsed(parse_intervals, text) == _parsed(_parse_lines, text)


def test_fresh_name_avoids_taken():
    assert fresh_name("a1", {"a1", "a1_2"}) not in {"a1", "a1_2"}
    assert fresh_name("z", set()) == "z"


def test_build_rejects_a_negative_weight():
    with pytest.raises(ValueError) as err:
        build([("a", 0, 1, -1)])
    assert str(err.value) == "negative weight for 'a'"


def test_format_needs_integer_endpoints():
    with pytest.raises(ValueError, match="serialization needs integer endpoints"):
        format_intervals(build([("a", 0.5, 1)]))
