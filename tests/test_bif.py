import functools
import hashlib
import math
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc import fixtures
from bnmc.bif import (
    _PUNCTUATION,
    _SCAN,
    BifDocument,
    ProbabilityBlock,
    VariableBlock,
    _Parser,
    declared_sizes,
    document_to_network,
    parse_bif,
    parse_bif_document,
    validated_network,
    write_bif,
)
from bnmc.errors import BifParseError
from bnmc.gen import random_network
from bnmc.network import Cpt, Variable, network_from_cpts, validate
from bnmc.symbolic import compile_network

from conftest import permuted_ids

MINIMAL = """
network tiny { }
variable x { type discrete [ 2 ] { no, yes }; }
probability ( x ) { table 0.5, 0.5; }
"""

_VAR = "variable x { type discrete [ 2 ] { no, yes }; }\n"
_Y = "variable y { type discrete [ 2 ] { no, yes }; }\nprobability ( x ) { table 0.5, 0.5; }\n"
_X = "probability ( x ) { table 0.5, 0.5; }\n"


def test_parse_fixture(student_mood):
    assert validate(student_mood) == []
    assert [v.name for v in student_mood.variables] == ["Dif", "Prep", "Grade", "Mood"]
    assert student_mood.cpts[2].rows[(1, 1)] == (0.05, 0.95)


def test_parse_minimal():
    bn = parse_bif(MINIMAL)
    assert len(bn.variables) == 1
    assert bn.cpts[0].rows[()] == (0.5, 0.5)


def test_parse_table_row_major_order():
    text = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 3 ] { x, y, z }; }
    variable c { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.2, 0.8; }
    probability ( b ) { table 0.1, 0.2, 0.7; }
    probability ( c | a, b ) {
      table 0.0, 1.0, 0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 0.5;
    }
    """
    bn = parse_bif(text)
    # Row-major over declared parents (a, b): row (a=0, b=1) is the second pair.
    assert bn.cpts[2].rows[(0, 1)] == (0.1, 0.9)
    assert bn.cpts[2].rows[(1, 2)] == (0.5, 0.5)


def test_parse_reindexes_declared_parent_order():
    text = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    variable c { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.5, 0.5; }
    probability ( b ) { table 0.5, 0.5; }
    probability ( c | b, a ) {
      (0, 0) 0.10, 0.90;
      (0, 1) 0.20, 0.80;
      (1, 0) 0.30, 0.70;
      (1, 1) 0.40, 0.60;
    }
    """
    bn = parse_bif(text)
    assert bn.cpts[2].parents == (0, 1)  # canonical ascending id
    # Declared key (b=0, a=1) becomes canonical key (a=1, b=0).
    assert bn.cpts[2].rows[(1, 0)] == (0.2, 0.8)


def test_parse_reindexes_three_parents_semantically():
    shuffled = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    variable c { type discrete [ 2 ] { 0, 1 }; }
    variable d { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.5, 0.5; }
    probability ( b ) { table 0.5, 0.5; }
    probability ( c ) { table 0.5, 0.5; }
    probability ( d | c, a, b ) {
      (0, 0, 0) 0.9, 0.1;
      (0, 0, 1) 0.8, 0.2;
      (0, 1, 0) 0.7, 0.3;
      (0, 1, 1) 0.6, 0.4;
      (1, 0, 0) 0.5, 0.5;
      (1, 0, 1) 0.4, 0.6;
      (1, 1, 0) 0.3, 0.7;
      (1, 1, 1) 0.2, 0.8;
    }
    """
    bn = parse_bif(shuffled)
    assert bn.cpts[3].parents == (0, 1, 2)
    # Declared (c=1, a=0, b=1) is canonical (a=0, b=1, c=1).
    assert bn.cpts[3].rows[(0, 1, 1)] == (0.4, 0.6)
    assert bn.cpts[3].rows[(1, 0, 0)] == (0.7, 0.3)


def test_commas_between_numbers_are_optional():
    text = """
    network t { }
    variable a { type discrete [ 3 ] { x, y, z }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.2 0.3 0.5; }
    probability ( b | a ) { (x) 0.1 0.9; (y) 0.2, 0.8; (z) 0.3 , 0.7 ; }
    """
    bn = parse_bif(text)
    assert bn.cpts[0].rows[()] == (0.2, 0.3, 0.5)
    assert bn.cpts[1].rows == {(0,): (0.1, 0.9), (1,): (0.2, 0.8), (2,): (0.3, 0.7)}


def test_parse_undeclared_variable():
    text = MINIMAL + "probability ( ghost ) { table 1.0; }"
    with pytest.raises(BifParseError, match="ghost"):
        parse_bif(text)


def test_parse_undeclared_parent_value():
    text = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.5, 0.5; }
    probability ( b | a ) {
      (0) 0.5, 0.5;
      (2) 0.5, 0.5;
    }
    """
    with pytest.raises(BifParseError, match="probability block b"):
        parse_bif(text)


def test_parse_missing_row():
    text = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.5, 0.5; }
    probability ( b | a ) { (0) 0.5, 0.5; }
    """
    with pytest.raises(BifParseError, match="missing row"):
        parse_bif(text)


def test_parse_missing_row_counts_rows_not_combinations():
    # 2^40 parent combinations and one row: refused by the row count, naming
    # the first missing combination, without listing the combinations.
    from conftest import one_row_block_bif

    key = (0,) * 39 + (1,)
    with pytest.raises(BifParseError, match=r"missing row .* = " + re.escape(str(key))):
        parse_bif(one_row_block_bif(40))


def test_parse_duplicate_row():
    text = """
    network t { }
    variable a { type discrete [ 2 ] { 0, 1 }; }
    variable b { type discrete [ 2 ] { 0, 1 }; }
    probability ( a ) { table 0.5, 0.5; }
    probability ( b | a ) {
      (0) 0.5, 0.5;
      (0) 0.4, 0.6;
      (1) 0.5, 0.5;
    }
    """
    with pytest.raises(BifParseError, match="duplicate row"):
        parse_bif(text)


@pytest.mark.parametrize(
    "blocks, message",
    [
        (_VAR + _VAR + _X, "variable x declared twice"),
        (_VAR + _X + _X, "duplicate probability block for x"),
        (
            _VAR + _Y + "probability ( y | x ) { table 0.5, 0.5, 0.5, 0.5; (no) 0.5, 0.5; }\n",
            "probability block y: mixes table and entry rows",
        ),
        (
            _VAR + _Y + "probability ( y | x ) { table 0.5, 0.5, 0.5; }\n",
            "probability block y: table length 3 != 4",
        ),
        (_VAR + _Y + "probability ( y | x ) { }\n", "probability block y: no rows"),
        (_VAR + "probability ( x ) { }\n", "probability block x: no table row"),
        (_VAR + _Y, "no probability block for variable y"),
        (
            _VAR + _Y + "probability ( y | x, x ) { table " + ", ".join(["0.5"] * 8) + "; }\n",
            "probability block y: parent x listed twice",
        ),
        (
            _VAR + _Y + "probability ( y | x, x ) { (no, no) 0.5, 0.5; (yes, yes) 0.5, 0.5; }\n",
            "probability block y: parent x listed twice",
        ),
    ],
    ids=["variable-twice", "block-twice", "table-and-entries", "table-length",
         "no-entry-rows", "no-table", "no-block", "repeated-parent-table",
         "repeated-parent-entries"],
)
def test_conversion_refusals_pinned(blocks, message):
    with pytest.raises(BifParseError) as info:
        parse_bif("network t { }\n" + blocks)
    assert str(info.value) == message


def test_parse_syntax_error_reports_position():
    with pytest.raises(BifParseError, match=r"line \d+"):
        parse_bif("network t {\nvariable x }")


def test_properties_preserved_as_metadata():
    text = """
    network t { property author = somebody ; }
    variable x {
      type discrete [ 2 ] { no, yes };
      property position = (100, 200) ;
    }
    probability ( x ) { table 0.5, 0.5; }
    """
    doc = parse_bif_document(text)
    assert doc.properties == ("author = somebody",)
    assert any("position" in p for p in doc.variables[0].properties)
    assert parse_bif(text).variables[0].name == "x"


def test_property_in_a_probability_block_is_kept():
    text = "network t { }\n" + _VAR + "probability ( x ) { property p = 1 ; table 0.5, 0.5; }\n"
    assert parse_bif_document(text).probabilities[0].properties == ("p = 1",)
    assert parse_bif(text).cpts[0].rows == {(): (0.5, 0.5)}


def test_parse_document_from_bytes():
    assert parse_bif_document(MINIMAL.encode("utf-8")) == parse_bif_document(MINIMAL)


def test_a_leading_byte_order_mark_is_ignored():
    doc = parse_bif_document(MINIMAL)
    assert parse_bif_document("\ufeff" + MINIMAL) == doc
    assert parse_bif_document(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8")) == doc


@pytest.mark.parametrize(
    "text, message",
    [
        ("\ufeff\ufeff" + MINIMAL, "line 1, col 1: expected 'network', got '\\ufeff'"),
        (
            "\ufeff" + MINIMAL.replace("{ }", "{\ufeff}"),
            "line 2, col 15: unexpected '\\ufeff' in network block",
        ),
        (
            MINIMAL.replace("variable", "\ufeffvariable"),
            "line 3, col 1: expected 'variable' or 'probability', got '\\ufeffvariable'",
        ),
    ],
)
def test_a_byte_order_mark_elsewhere_is_refused(text, message):
    for form in (text, text.encode("utf-8")):
        with pytest.raises(BifParseError) as info:
            parse_bif(form)
        assert str(info.value) == message


def test_declared_sizes_give_the_chain_size_bound():
    from bnmc.chain import prefix_bound, size_bound

    rng = random.Random(11)
    for _ in range(30):
        bn = random_network(rng, n_vars=rng.randint(1, 9), min_domain=1, max_domain=4)
        doc = parse_bif_document(write_bif(bn))
        bound = size_bound(document_to_network(doc))
        # The order of the declared parents does not change the bound.
        for block in doc.probabilities:
            block.parents = tuple(rng.sample(block.parents, len(block.parents)))
        assert prefix_bound(declared_sizes(doc)) == bound


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.variables.append(doc.variables[0]),  # repeated name
        lambda doc: doc.probabilities.pop(),  # a variable without a block
        lambda doc: setattr(doc.probabilities[0], "parents", ("nowhere",)),
        lambda doc: setattr(doc.probabilities[1], "parents", ("Dif", "Dif")),  # repeated
        lambda doc: doc.probabilities.__setitem__(0, doc.probabilities[1]),  # owner twice
        lambda doc: setattr(doc.probabilities[0], "parents", ("Mood",)),  # a cycle
    ],
)
def test_declared_sizes_refuse_an_unordered_structure(edit):
    doc = parse_bif_document(write_bif(fixtures.student_mood()))
    assert declared_sizes(doc) == [2, 2, 2, 2]
    edit(doc)
    assert declared_sizes(doc) is None


def test_roundtrip_fixture(student_mood):
    assert parse_bif(write_bif(student_mood)) == student_mood


def test_roundtrip_minimal():
    bn = parse_bif(MINIMAL)
    assert parse_bif(write_bif(bn)) == bn


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_roundtrip_random_networks(seed):
    bn = random_network(random.Random(seed), max_vars=6, max_domain=4)
    assert parse_bif(write_bif(bn)) == bn


def _decorated_bif(bn, rng: random.Random) -> str:
    """BIF text of `bn` in forms `write_bif` never writes: comments between
    tokens, a `property` line in every block, number lists with or without
    commas, parents in a shuffled order, one child's rows as a flat `table`
    row in that order, and CRLF line ends."""

    def line(*tokens: str) -> str:
        out = [tokens[0]]
        for tok in tokens[1:]:
            out.append(rng.choice([" ", " /* note */ ", " // note\r\n", "\r\n  "]))
            out.append(tok)
        return "".join(out)

    def listed(words) -> list[str]:
        return [tok for word in words for tok in (word, ",")][:-1]

    def numbers(row) -> list[str]:
        words = [repr(p) for p in row]
        return rng.choice([words, listed(words)])

    lines = [line("network", bn.name, "{"), line("property", "kind", "=", "decorated", ";"), "}"]
    for v in bn.variables:
        lines.append(line("variable", v.name, "{"))
        size = str(len(v.domain))
        lines.append(line("type", "discrete", "[", size, "]", "{", *listed(v.domain), "}", ";"))
        lines.append(line("property", "position", "=", "(", "1", ",", "2", ")", ";"))
        lines.append("}")
    with_parents = [cpt.owner for cpt in bn.cpts if cpt.parents]
    flat = rng.choice(with_parents) if with_parents else None
    for cpt in bn.cpts:
        v = bn.variables[cpt.owner]
        declared = rng.sample(cpt.parents, len(cpt.parents))
        slots = [declared.index(u) for u in cpt.parents]
        parents = ["|", *listed(bn.variables[u].name for u in declared)] if declared else []
        lines.append(line("probability", "(", v.name, *parents, ")", "{"))
        lines.append(line("property", "source", "=", "generated", ";"))
        keys = product(*(range(len(bn.variables[u].domain)) for u in declared))
        if cpt.owner == flat or not declared:
            row = [p for key in keys for p in cpt.rows[tuple(key[i] for i in slots)]]
            lines.append(line("table", *numbers(row), ";"))
        else:
            for key in keys:
                labels = [bn.variables[u].domain[k] for u, k in zip(declared, key)]
                row = cpt.rows[tuple(key[i] for i in slots)]
                lines.append(line("(", *labels, ")", *numbers(row), ";"))
        lines.append("}")
    return "\r\n".join(lines) + "\r\n"


def test_every_rendering_of_a_network_parses_to_that_network():
    rng = random.Random(2030)
    for i in range(200):
        bn = random_network(rng, max_vars=6, min_domain=1, max_domain=3, edge_prob=0.5,
                            zero_entry_prob=0.2)
        if i % 2:
            bn = permuted_ids(bn, rng)
        text = _decorated_bif(bn, rng)
        assert parse_bif(text) == parse_bif(write_bif(bn)), text


def _one_variable(name="t", variable="x", labels=("no", "yes")):
    row = (1.0,) + (0.0,) * (len(labels) - 1)
    return network_from_cpts(name, [Variable(0, variable, labels)], [Cpt(0, (), {(): row})])


@pytest.mark.parametrize(
    "bn, message",
    [
        (_one_variable(variable="a b"), "variable name 'a b' is not one BIF word"),
        (_one_variable(variable="x;y"), "variable name 'x;y' is not one BIF word"),
        (_one_variable(variable=""), "variable name '' is not one BIF word"),
        (_one_variable(labels=("a,b", "c")), "variable x: label 'a,b' is not one BIF word"),
        (_one_variable(labels=("", "c")), "variable x: label '' is not one BIF word"),
        (_one_variable(labels=("c", "//c")), "variable x: label '//c' is not one BIF word"),
        (_one_variable(labels=("/*c",)), "variable x: label '/*c' is not one BIF word"),
        (_one_variable(name=""), "network name '' is not words separated by single spaces"),
        (_one_variable(name="a  b"), "network name 'a  b' is not words separated by single spaces"),
        (_one_variable(name="a\tb"), "network name 'a\\tb' is not words separated by single spaces"),
        (_one_variable(name=" a"), "network name ' a' is not words separated by single spaces"),
    ],
)
def test_write_bif_refuses_what_it_cannot_read_back(bn, message):
    with pytest.raises(ValueError) as info:
        write_bif(bn)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "bn",
    [
        _one_variable(name="a network of words"),
        _one_variable(name="network variable table"),
        _one_variable(variable="a//b", labels=("a/*", "*/")),
        _one_variable(variable="probability", labels=("table", "property", "1e5")),
    ],
)
def test_write_bif_round_trips_odd_words(bn):
    assert parse_bif(write_bif(bn)) == bn


# Words that BIF text carries, keywords among them, and names joined from
# them, whitespace, punctuation and comment starts.
_WORDS = st.sampled_from(
    ["a", "b", "a/b", "*/", "network", "variable", "probability", "type", "discrete",
     "table", "property"]
)
_NAME = st.lists(
    st.one_of(_WORDS, st.sampled_from([" ", "\t", "\n", "\x1c", *"{}()[]|,;/*"])),
    max_size=4,
).map("".join)


@st.composite
def _odd_networks(draw):
    # Half the networks use words alone, so that many are written.
    name = draw(st.sampled_from([_WORDS, _NAME]))
    names = draw(st.lists(name, min_size=1, max_size=3, unique=True))
    variables = [
        Variable(i, v, tuple(draw(st.lists(name, min_size=1, max_size=3, unique=True))))
        for i, v in enumerate(names)
    ]
    cpts = []
    for v in variables:
        parents = tuple(p for p in range(v.id) if draw(st.booleans()))
        row = tuple(1.0 / len(v.domain) for _ in v.domain)
        keys = product(*(range(len(variables[p].domain)) for p in parents))
        cpts.append(Cpt(v.id, parents, {key: row for key in keys}))
    return network_from_cpts(draw(st.one_of(_WORDS, _NAME)), variables, cpts)


def _is_word(word: str) -> bool:
    """Whether `word` is read as one token, not punctuation, between two others."""
    try:
        tokens = _Parser(f"x {word} x").tokens
    except BifParseError:
        return False
    return tokens == ["x", word, "x"] and word not in _PUNCTUATION


@settings(max_examples=300, deadline=None)
@given(bn=_odd_networks())
def test_write_bif_round_trips_or_refuses(bn):
    try:
        text = write_bif(bn)
    except ValueError as exc:
        # A network name is refused unless it is words separated by single
        # spaces, and a variable name or label unless it is one word.
        refused = [
            (bn.name, all(map(_is_word, bn.name.split(" ")))),
            *((word, _is_word(word)) for v in bn.variables for word in (v.name, *v.domain)),
        ]
        assert any(repr(word) in str(exc) and not ok for word, ok in refused)
    else:
        assert validate(bn) == []
        assert parse_bif(text) == bn


def _with_count(count: str) -> str:
    return (
        "network t { }\n"
        f"variable x {{ type discrete [ {count} ] {{ a, b }}; }}\n"
        "probability ( x ) { table 0.5, 0.5; }\n"
    )


@pytest.mark.parametrize("count", ["inf", "1e400", "nan", "2.5"])
def test_domain_count_must_be_a_whole_number(count):
    with pytest.raises(BifParseError) as info:
        parse_bif(_with_count(count))
    assert str(info.value) == f"line 2, col 30: expected a whole number, got {count!r}"


@pytest.mark.parametrize("count", ["2", "2.0"])
def test_whole_domain_count_accepted(count):
    assert parse_bif(_with_count(count)).variables[0].domain == ("a", "b")


@pytest.mark.parametrize(
    "text, message",
    [
        (  # error on the line that closes a multi-line block comment
            "network t { }\n/* a comment\n   over two lines */ variable x "
            "{ type discrete [ 2 ] { no, yes } }\n",
            "line 3, col 67: expected ';', got '}'",
        ),
        (  # a block comment earlier on the same line
            "network t { }\nvariable x { /* c */ kind discrete [ 2 ] { no, yes }; }\n",
            "line 2, col 22: variable x: unsupported item 'kind'",
        ),
        (  # first token of the line after a `//` comment that holds punctuation
            "network t { } // note { ;\nvaraible x { }\n",
            "line 2, col 1: expected 'variable' or 'probability', got 'varaible'",
        ),
        (  # first token of an indented line
            "network t { }\n" + _VAR + "\tprobablity ( x ) { table 0.5, 0.5; }\n",
            "line 3, col 2: expected 'variable' or 'probability', got 'probablity'",
        ),
        (  # `//` inside a label does not start a comment: one label, not two
            "network t { }\nvariable x { type discrete [ 2 ] { no//yes }; }\n",
            "line 2, col 14: variable x: declared 2 values, listed 1",
        ),
        (
            "network t { }\n" + _VAR + "  /* never closed\nprobability ( x ) { }\n",
            "line 3, col 3: unterminated block comment",
        ),
        (
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5, 0.5;",
            "unexpected end of input",
        ),
        # Comment-free text, split at punctuation: one case per error of a
        # block or row read in bulk.
        (  # a non-number in a table row
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5, half; }\n",
            "line 3, col 32: expected a number, got 'half'",
        ),
        (  # a non-number in an entry row without commas
            "network t { }\n" + _VAR + _Y + "probability ( y | x ) {\n"
            "  (no) 0.5, 0.5;\n  (yes) 0.5 0.5e;\n}\n",
            "line 7, col 13: expected a number, got '0.5e'",
        ),
        (  # a missing `;` before `}`
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5, 0.5 }\n",
            "line 3, col 36: expected a number, got '}'",
        ),
        (  # a doubled comma
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5,, 0.5; }\n",
            "line 3, col 31: expected a number, got ','",
        ),
        (  # a trailing comma
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5, 0.5,; }\n",
            "line 3, col 36: expected a number, got ';'",
        ),
        (  # a count that is not whole
            "network t { }\nvariable x { type discrete [ 2.5 ] { no, yes }; }\n",
            "line 2, col 30: expected a whole number, got '2.5'",
        ),
        (  # more values declared than listed
            "network t { }\nvariable x { type discrete [ 3 ] { no, yes }; }\n",
            "line 2, col 14: variable x: declared 3 values, listed 2",
        ),
        (  # an unsupported item
            "network t { }\n" + _VAR + "probability ( x ) { tabel 0.5, 0.5; }\n",
            "line 3, col 21: probability block x: unsupported item 'tabel'",
        ),
        (  # a count that is not a number, read token by token
            "network t { }\nvariable x { type discrete [ two ] { no, yes }; }\n",
            "line 2, col 30: expected a number, got 'two'",
        ),
        (  # a variable block with no type
            "network t { }\nvariable x { property p; }\n",
            "variable x: missing 'type discrete' declaration",
        ),
        (  # a second table in one block
            "network t { }\n" + _VAR + "probability ( x ) { table 0.5, 0.5; table 0.5, 0.5; }\n",
            "line 3, col 37: probability block x: duplicate table row",
        ),
        (  # a network header with no `{`
            "network t\n",
            "unexpected end of input",
        ),
    ],
)
def test_error_positions_pinned(text, message):
    with pytest.raises(BifParseError) as info:
        parse_bif(text)
    assert str(info.value) == message


# Punctuation, comment starts, word characters and whitespace that `\s`
# matches beyond ASCII.
_PIECES = "{}()[]|,;/*aZx09.-" + " \t\n\x1c\x85\u3000"


@settings(max_examples=400, deadline=None)
@given(
    text=st.one_of(
        st.text(alphabet=_PIECES.replace("/", ""), max_size=40),
        st.text(alphabet=_PIECES, max_size=40),
    )
)
def test_tokens_are_the_scanner_tokens(text):
    reference = list(filter(None, _SCAN.findall(text)))
    if reference and reference[-1].startswith("/*"):
        with pytest.raises(BifParseError, match="unterminated block comment"):
            _Parser(text)
    else:
        assert _Parser(text).tokens == reference


_PIECE = re.compile(r"\s+|[{}()\[\]|,;]|[^\s{}()\[\]|,;]+")
_ODD_NUMBERS = ("nan", "inf", "1e400", "-0.25", "-0.0")


def _mutant(rng: random.Random) -> str:
    """`write_bif` text of a seeded small network with one token mutated: a
    token dropped, doubled or swapped with a near one, a comma doubled
    inside parentheses (a parent-label list), or a probability replaced by
    an odd number."""
    bn = random_network(rng, max_vars=5, min_domain=1, max_domain=3, edge_prob=0.5,
                        zero_entry_prob=0.2)
    if rng.random() < 0.3:
        bn = permuted_ids(bn, rng)
    pieces = _PIECE.findall(write_bif(bn))
    tokens = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    depth, commas, numbers = 0, [], []
    for i in tokens:
        depth += {"(": 1, ")": -1}.get(pieces[i], 0)
        if pieces[i] == "," and depth:
            commas.append(i)
        elif "." in pieces[i] or "e" in pieces[i]:
            try:
                float(pieces[i])
            except ValueError:
                continue
            numbers.append(i)
    kind = rng.choice(["drop", "double", "swap", "comma", "number", "number"])
    if kind == "comma" and commas:
        pieces[rng.choice(commas)] = ",,"
    elif kind == "number" and numbers:
        pieces[rng.choice(numbers)] = rng.choice(_ODD_NUMBERS)
    else:
        at = rng.randrange(len(tokens))
        i = tokens[at]
        if kind == "double":
            pieces[i] += " " + pieces[i]
        elif kind == "swap" and at + 1 < len(tokens):
            j = tokens[min(len(tokens) - 1, at + rng.randint(1, 4))]
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            pieces[i] = ""
    return "".join(pieces)


@functools.cache
def _mutants() -> tuple[str, ...]:
    """2,000 mutated texts, drawn once per session."""
    rng = random.Random(2028)
    return tuple(_mutant(rng) for _ in range(2000))


def _read(text: str) -> str:
    try:
        return repr(parse_bif_document(text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mutated_texts_read_as_pinned():
    # One digest over every mutant's document `repr`, or its exception type
    # and message: a change to the reader that moves any outcome fails here.
    digest = hashlib.sha256()
    for text in _mutants():
        digest.update(_read(text).encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "ef8f1663a4c523fd3f0f4a687cfe712d5e8fe9b79dbdc2aa8dfca6ca0db52e30"
    )


def _validated_as_in_full(doc: BifDocument) -> list[str] | None:
    """Check `validated_network` against conversion and the full `validate`;
    return that validation's messages, or None when conversion refuses."""
    try:
        bn = document_to_network(doc)
    except BifParseError as exc:
        with pytest.raises(BifParseError) as info:
            validated_network(doc)
        assert str(info.value) == str(exc)
        return None
    problems = validate(bn)
    if problems:
        with pytest.raises(BifParseError) as info:
            validated_network(doc)
        assert str(info.value) == "invalid network: " + "; ".join(problems)
    else:
        assert validated_network(doc) == bn
    return problems


def test_validated_network_matches_full_validation_on_mutants():
    # Conversion refuses every structural fault, so the value half of
    # `validate` alone must refuse exactly what the whole refuses, in words.
    outcomes = {"refused": 0, "invalid": 0, "valid": 0}
    for text in _mutants():
        try:
            doc = parse_bif_document(text)
        except BifParseError:
            continue
        problems = _validated_as_in_full(doc)
        outcomes["refused" if problems is None else "invalid" if problems else "valid"] += 1
    assert min(outcomes.values()) >= 50, outcomes


_AB = "variable a { type discrete [ 2 ] { 0, 1 }; }\nvariable b { type discrete [ 2 ] { 0, 1 }; }\n"


@pytest.mark.parametrize(
    "doc, problems",
    [
        (
            parse_bif_document("network t { }\n" + _VAR + "probability ( x ) { table 1.5, -0.5; }\n"),
            ["variable x, row (): entry outside [0, 1]"],
        ),
        (
            BifDocument("t", [VariableBlock("x", ())], [ProbabilityBlock("x", (), table=())]),
            ["variable x: empty domain", "variable x, row (): probabilities sum to 0"],
        ),
        (
            parse_bif_document(
                "network t { }\nvariable x { type discrete [ 2 ] { a, a }; }\n"
                "probability ( x ) { table 0.5, 0.5; }\n"
            ),
            ["variable x: duplicate domain labels"],
        ),
        (
            parse_bif_document(
                "network t { }\n" + _VAR + "probability ( x | x ) { (no) 0.5, 0.5; (yes) 0.5, 0.5; }\n"
            ),
            ["cycle detected involving edge x -> x"],
        ),
        (
            parse_bif_document(
                "network t { }\n" + _AB + "probability ( a | b ) { (0) 0.5, 0.5; (1) 0.5, 0.5; }\n"
                "probability ( b | a ) { (0) 0.5, 0.5; (1) 0.5, 0.5; }\n"
            ),
            ["cycle detected involving edge b -> a"],
        ),
    ],
    ids=["sums-to-one-out-of-range", "empty-domain", "duplicate-labels", "self-parent",
         "two-variable-cycle"],
)
def test_validated_network_matches_full_validation(doc, problems):
    assert _validated_as_in_full(doc) == problems


def test_negative_zero_entries_are_accepted_and_compile_to_zero():
    text = "network t { }\n" + _VAR + "probability ( x ) { table -0.0, 1.0; }\n"
    bn = parse_bif(text)
    assert _validated_as_in_full(parse_bif_document(text)) == []
    sym = compile_network(bn)
    lo, _ = sym.manager.cofactors(sym.cpt_refs[0])
    zero = sym.manager.terminal_value(lo)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    assert lo == sym.manager.terminal(0.0)
