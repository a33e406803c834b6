"""graph6 codec: round trips, strict validation, external agreement."""
import random

import pytest

from rigidspec import (
    Graph,
    Graph6Error,
    linked_cliques,
    parse_graph6,
    write_graph6,
)
from rigidspec.graphcore import iter_graph6_lines
from conftest import random_graph, to_networkx
from oracles import complete_graph, reference_parse_graph6


def test_known_encodings():
    assert write_graph6(Graph(0)) == "?"
    assert write_graph6(Graph(1)) == "@"
    assert write_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("?") == Graph(0)
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_roundtrip_small_and_structured():
    for g in [Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)]),
              complete_graph(10), linked_cliques(16, 7, 2),
              linked_cliques(26, 9, 3)]:
        assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_random():
    rng = random.Random(31)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        line = write_graph6(g)
        assert parse_graph6(line) == g
        # byte-level: reencoding the parse reproduces the line
        assert write_graph6(parse_graph6(line)) == line


def test_long_form_header_boundary():
    g = Graph(63, [(0, 62)])
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_agreement_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        ours = write_graph6(g)
        h = to_networkx(g)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert (set(map(frozenset, back.edges()))
                == set(map(frozenset, g.edge_list())))


def test_malformed_inputs_rejected():
    cases = [
        "",                # nothing
        " ",               # blank
        "B!",              # byte below range
        "B\x7f",           # byte above range
        "Bww",             # trailing garbage
        "B",               # truncated body
        "A`",              # nonzero padding bits
        "~",               # truncated long header
        "~??",             # truncated long header
        "~??A",            # non-minimal: n=1 in long form
        "café",       # non-ascii
    ]
    for s in cases:
        with pytest.raises(Graph6Error):
            parse_graph6(s)


def test_padding_validation_exact():
    # n=2 has one adjacency bit and five padding bits
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    assert parse_graph6("A?") == Graph(2)
    with pytest.raises(Graph6Error):
        parse_graph6("A@")  # padding bit set


def test_iter_graph6_lines_numbers_and_blanks():
    lines = ["Bw\n", "\n", "  \n", "A_\n", "?"]
    out = list(iter_graph6_lines(lines))
    assert out == [(1, "Bw"), (4, "A_"), (5, "?")]


def _outcome(parse, line):
    try:
        return parse(line)
    except Exception as exc:  # the two codecs must fail alike
        return type(exc), str(exc)


def test_mutated_lines_decode_as_the_reference_does():
    rng = random.Random(606)
    alphabet = [chr(c) for c in range(60, 130)] + ["\xe9", " ", "\n"]
    failures = 0
    for _ in range(3000):
        g = random_graph(rng, rng.randint(0, 80), rng.random())
        chars = list(write_graph6(g))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(chars) + 1)
            edit = rng.randrange(3)
            if edit == 0 and k < len(chars):
                chars[k] = rng.choice(alphabet)
            elif edit == 1 and k < len(chars):
                del chars[k]
            else:
                chars.insert(k, rng.choice(alphabet))
        mutated = "".join(chars)
        got = _outcome(parse_graph6, mutated)
        assert got == _outcome(reference_parse_graph6, mutated), mutated
        failures += not isinstance(got, Graph)
    # both outcomes occur often enough to compare
    assert 300 < failures < 2700


@pytest.mark.parametrize("line, message", [
    ("!>>graph6<<Bw", "byte 33 at position 0 outside graph6 range"),
    ("~?!?", "byte 33 at position 2 outside graph6 range"),
    ("C!w\x7f", "byte 33 at position 1 outside graph6 range"),
], ids=["before-header", "in-length-header", "in-body"])
def test_out_of_range_byte_named_at_its_first_position(line, message):
    for parse in (parse_graph6, reference_parse_graph6):
        with pytest.raises(Graph6Error) as exc:
            parse(line)
        assert str(exc.value) == message


def test_eight_byte_headers():
    # ~~ then n in six 6-bit digits: n = 258048 = 63 << 12 is the least
    # order that needs the long form
    with pytest.raises(Graph6Error,
                       match="body length 0 != expected .* for n=258048$"):
        parse_graph6("~~???~??")
    for line in ("~~??????", "~~???}~~"):  # n = 0 and n = 258047
        with pytest.raises(Graph6Error, match="non-minimal length header"):
            parse_graph6(line)
    with pytest.raises(Graph6Error, match="truncated length header"):
        parse_graph6("~~???~?")
