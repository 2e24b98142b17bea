"""Reader and writer for the BIF interchange format.

Supported subset: `network`, `variable` blocks with `type discrete`, and
`probability` blocks given either as a single `table` row or as per-row
`(parent values) p1, ..., pk;` entries. `property` strings are kept as
opaque metadata on the surrounding block. Comments follow C conventions
(`//` and `/* ... */`) and start only at a token boundary.

Only a `/` can start a comment, so text without one is split at punctuation
and whitespace; text with one is scanned by `_SCAN`. Both give the same
tokens, and errors the same positions. Blocks are read token by token.

Checks are split between two layers, so a cold read checks each row once.
Conversion (`document_to_network`) owns the structural checks: it refuses
an undeclared or repeated name, a missing or second block, a row key out of
the domains, a repeated or missing row and a row of the wrong width. The
network's `validate_values` owns the value checks: domains, cycles, and
each row's entries and sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice, product
from math import prod
from typing import Iterator

from .errors import BifParseError, CycleError
from .network import (
    BayesianNetwork,
    Cpt,
    Variable,
    network_from_cpts,
    topological_order,
    validate_values,
)

# One match per piece of text: whitespace and comments are matched without
# the group, a token inside it. A `/*` with no closing `*/` becomes a token
# that runs to the end of the text, so only the last token can start with
# `/*`. A word runs to the next space or punctuation, so `a//b` is one label.
_SCAN = re.compile(
    r"\s+|//[^\n]*|/\*.*?\*/|(/\*.*|[{}()\[\]|,;]|[^\s{}()\[\]|,;]+)", re.S
)
_PUNCTUATION = "{}()[]|,;"
# A name or label that reads back as itself: one token, which no comment starts.
_WORD = re.compile(r"(?!//|/\*)[^\s{}()\[\]|,;]+")


@dataclass
class VariableBlock:
    name: str
    values: tuple[str, ...]
    properties: tuple[str, ...] = ()


@dataclass
class ProbabilityBlock:
    owner: str
    parents: tuple[str, ...]
    table: tuple[float, ...] | None = None
    entries: tuple[tuple[tuple[str, ...], tuple[float, ...]], ...] = ()
    properties: tuple[str, ...] = ()


@dataclass
class BifDocument:
    """Parsed structure of a BIF file, before network assembly."""

    name: str
    variables: list[VariableBlock] = field(default_factory=list)
    probabilities: list[ProbabilityBlock] = field(default_factory=list)
    properties: tuple[str, ...] = ()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        if "/" in text:
            self.tokens = list(filter(None, _SCAN.findall(text)))
            if self.tokens and self.tokens[-1].startswith("/*"):
                raise self._error("unterminated block comment", len(self.tokens) - 1)
        else:
            # Only a `/` starts a comment, so this text is tokens, punctuation
            # and whitespace alone; `str.split` and `\s` agree on whitespace.
            for mark in _PUNCTUATION:
                text = text.replace(mark, f" {mark} ")
            self.tokens = text.split()

    def _error(self, message: str, index: int | None = None) -> BifParseError:
        """An error located at token `index`, by default the one read last.

        The text is scanned again up to that token to find its line and
        column, so only errors pay for positions.
        """
        tokens = (m for m in _SCAN.finditer(self.text) if m.group(1))
        start = next(islice(tokens, self.pos - 1 if index is None else index, None)).start()
        line = self.text.count("\n", 0, start) + 1
        return BifParseError(message, line, start - self.text.rfind("\n", 0, start))

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise BifParseError("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self._error(f"expected {text!r}, got {tok!r}")

    def _number(self) -> float:
        tok = self.next()
        try:
            return float(tok)
        except ValueError:
            raise self._error(f"expected a number, got {tok!r}")

    def _count(self) -> int:
        count = self._number()
        if not count.is_integer():  # also refuses inf and nan
            raise self._error(f"expected a whole number, got {self.tokens[self.pos - 1]!r}")
        return int(count)

    def _number_list(self) -> tuple[float, ...]:
        """Numbers up to `;`, which is consumed; a comma may separate two.
        A malformed list raises at the token that breaks it."""
        out = [self._number()]
        while self.peek() != ";":
            if self.peek() == ",":
                self.next()
            out.append(self._number())
        self.expect(";")
        return tuple(out)

    def _until(self, closer: str) -> list[str]:
        """The tokens before the next `closer`, which is consumed."""
        try:
            end = self.tokens.index(closer, self.pos)
        except ValueError:
            raise BifParseError("unexpected end of input") from None
        tokens, self.pos = self.tokens[self.pos : end], end + 1
        return tokens

    def _labels(self, closer: str) -> tuple[str, ...]:
        """Labels up to `closer`, which is consumed; commas are skipped."""
        return tuple([tok for tok in self._until(closer) if tok != ","])

    def _property(self) -> str:
        # `property` already consumed; keep the raw remainder up to `;`.
        return " ".join(self._until(";"))

    def document(self) -> BifDocument:
        self.expect("network")
        name = " ".join(self._until("{"))
        net_props = []
        while self.peek() != "}":
            tok = self.next()
            if tok != "property":
                raise self._error(f"unexpected {tok!r} in network block")
            net_props.append(self._property())
        self.expect("}")
        doc = BifDocument(name=name or "unnamed", properties=tuple(net_props))
        while self.peek() is not None:
            tok = self.next()
            if tok == "variable":
                doc.variables.append(self._variable_block())
            elif tok == "probability":
                doc.probabilities.append(self._probability_block())
            else:
                raise self._error(f"expected 'variable' or 'probability', got {tok!r}")
        return doc

    def _variable_block(self) -> VariableBlock:
        name = self.next()
        self.expect("{")
        values: tuple[str, ...] | None = None
        props = []
        while self.peek() != "}":
            tok = self.next()
            if tok == "type":
                type_at = self.pos - 1
                self.expect("discrete")
                self.expect("[")
                count = self._count()
                self.expect("]")
                self.expect("{")
                values = self._labels("}")
                self.expect(";")
                if len(values) != count:
                    raise self._error(
                        f"variable {name}: declared {count} values, listed {len(values)}",
                        type_at,
                    )
            elif tok == "property":
                props.append(self._property())
            else:
                raise self._error(f"variable {name}: unsupported item {tok!r}")
        self.expect("}")
        if values is None:
            raise BifParseError(f"variable {name}: missing 'type discrete' declaration")
        return VariableBlock(name=name, values=values, properties=tuple(props))

    def _probability_block(self) -> ProbabilityBlock:
        self.expect("(")
        owner = self.next()
        parents: tuple[str, ...] = ()
        if self.peek() == "|":
            self.next()
            parents = self._labels(")")
        else:
            self.expect(")")
        self.expect("{")
        table = None
        entries = []
        props = []
        while self.peek() != "}":
            tok = self.next()
            if tok == "(":
                entries.append((self._labels(")"), self._number_list()))
            elif tok == "table":
                if table is not None:
                    raise self._error(f"probability block {owner}: duplicate table row")
                table = self._number_list()
            elif tok == "property":
                props.append(self._property())
            else:
                raise self._error(f"probability block {owner}: unsupported item {tok!r}")
        self.expect("}")
        return ProbabilityBlock(
            owner=owner,
            parents=parents,
            table=table,
            entries=tuple(entries),
            properties=tuple(props),
        )


def parse_bif_document(text: str | bytes) -> BifDocument:
    """Parse BIF text or UTF-8 bytes into blocks; one leading BOM is ignored."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _Parser(text.removeprefix("\ufeff")).document()


def _resolve(doc: BifDocument) -> tuple[list[Variable], list[dict[str, int]], Iterator]:
    """The structure of a document: its variables by id, each one's label ->
    value index, and its probability blocks, each with its owner and its
    parents in declared order.

    The blocks are resolved one at a time, as they are taken, so a caller
    that converts each block's rows before taking the next meets every
    refusal in document order: a variable declared twice at once, an
    undeclared or repeated name and a second block for one owner at their
    block, and a variable with no block when the blocks run out.
    """
    by_name: dict[str, Variable] = {}
    # A repeated label keeps its first index: validate refuses such a domain,
    # but a row error may come first.
    label_index: list[dict[str, int]] = []
    for i, block in enumerate(doc.variables):
        if block.name in by_name:
            raise BifParseError(f"variable {block.name} declared twice")
        by_name[block.name] = Variable(id=i, name=block.name, domain=block.values)
        label_index.append({})
        for k, label in enumerate(block.values):
            label_index[i].setdefault(label, k)
    variables = list(by_name.values())

    def blocks() -> Iterator[tuple[ProbabilityBlock, Variable, list[Variable]]]:
        owners: set[int] = set()
        for block in doc.probabilities:
            if block.owner not in by_name:
                raise BifParseError(
                    f"probability block references undeclared variable {block.owner!r}"
                )
            owner = by_name[block.owner]
            declared_parents = []
            for k, p in enumerate(block.parents):
                if p not in by_name:
                    raise BifParseError(
                        f"probability block {block.owner}: undeclared parent {p!r}"
                    )
                if p in block.parents[:k]:
                    raise BifParseError(
                        f"probability block {block.owner}: parent {p} listed twice"
                    )
                declared_parents.append(by_name[p])
            if owner.id in owners:
                raise BifParseError(f"duplicate probability block for {block.owner}")
            owners.add(owner.id)
            yield block, owner, declared_parents
        for var in variables:
            if var.id not in owners:
                raise BifParseError(f"no probability block for variable {var.name}")

    return variables, label_index, blocks()


def document_to_network(doc: BifDocument) -> BayesianNetwork:
    variables, label_index, blocks = _resolve(doc)
    cpts = []
    for block, owner, declared_parents in blocks:
        canonical = sorted(declared_parents, key=lambda v: v.id)
        # Parents declared in ascending id order, as `write_bif` writes them,
        # keep their declared keys; others are re-keyed.
        reorder = (
            None
            if canonical == declared_parents
            else [declared_parents.index(v) for v in canonical]
        )
        rows: dict[tuple[int, ...], tuple[float, ...]] = {}

        def add_row(declared_key: tuple[int, ...], probs: tuple[float, ...]) -> None:
            key = declared_key if reorder is None else tuple([declared_key[i] for i in reorder])
            if key in rows:
                raise BifParseError(
                    f"probability block {block.owner}: duplicate row for parents "
                    f"{tuple(canonical[i].name for i in range(len(key)))} = {key}"
                )
            if len(probs) != len(owner.domain):
                raise BifParseError(
                    f"probability block {block.owner}: row has {len(probs)} entries, "
                    f"domain has {len(owner.domain)}"
                )
            rows[key] = probs

        if block.table is not None:
            if block.entries:
                raise BifParseError(
                    f"probability block {block.owner}: mixes table and entry rows"
                )
            if declared_parents:
                # Table rows enumerate parent values in row-major declared order.
                total = prod(len(p.domain) for p in declared_parents)
                width = len(owner.domain)
                if len(block.table) != total * width:
                    raise BifParseError(
                        f"probability block {block.owner}: table length "
                        f"{len(block.table)} != {total * width}"
                    )
                keys = product(*(range(len(p.domain)) for p in declared_parents))
                for flat, declared_key in enumerate(keys):
                    add_row(declared_key, block.table[flat * width : (flat + 1) * width])
            else:
                add_row((), block.table)
        else:
            if not block.entries and declared_parents:
                raise BifParseError(f"probability block {block.owner}: no rows")
            if not declared_parents and not block.entries:
                raise BifParseError(f"probability block {block.owner}: no table row")
            indexes = [label_index[p.id] for p in declared_parents]
            for labels, probs in block.entries:
                if len(labels) != len(declared_parents):
                    raise BifParseError(
                        f"probability block {block.owner}: row names {len(labels)} "
                        f"parent values, expected {len(declared_parents)}"
                    )
                try:
                    declared_key = tuple([ix[label] for ix, label in zip(indexes, labels)])
                except KeyError:
                    label, parent = next(
                        (label, parent)
                        for label, parent, ix in zip(labels, declared_parents, indexes)
                        if label not in ix
                    )
                    raise BifParseError(
                        f"probability block {block.owner}: value {label!r} not in "
                        f"domain of parent {parent.name}"
                    ) from None
                add_row(declared_key, probs)

        # Every key is in range and add_row refuses repeats, so the rows are
        # complete when they number the parent combinations; only a short
        # block is scanned, in ascending order, for its first missing key.
        if len(rows) != prod(len(v.domain) for v in canonical):
            keys = product(*(range(len(v.domain)) for v in canonical))
            key = next(key for key in keys if key not in rows)
            raise BifParseError(
                f"probability block {block.owner}: missing row for parents "
                f"{tuple(v.name for v in canonical)} = {key}"
            )
        cpts.append(
            Cpt(owner=owner.id, parents=tuple(v.id for v in canonical), rows=rows)
        )
    return network_from_cpts(doc.name, variables, cpts)


def declared_sizes(doc: BifDocument) -> list[int] | None:
    """Domain sizes in the network's topological order, read from the variable
    blocks and parent lists alone, with no table converted.

    The structure is resolved as `document_to_network` resolves it and
    ordered by `network.topological_order`, so the order is the converted
    network's. None when the conversion refuses the structure (an undeclared
    or repeated name, a variable without exactly one probability block) or
    it has a cycle.
    """
    try:
        variables, _, blocks = _resolve(doc)
        cpts = [
            Cpt(owner=owner.id, parents=tuple(sorted(p.id for p in parents)), rows={})
            for _, owner, parents in blocks
        ]
        order = topological_order(network_from_cpts(doc.name, variables, cpts))
    except (BifParseError, CycleError):
        return None
    return [len(variables[v].domain) for v in order]


def validated_network(doc: BifDocument) -> BayesianNetwork:
    """Convert a parsed document into a validated network.

    `document_to_network` refuses every structural fault of a document, so
    only the value half of `validate` is run; on such a network it gives
    the same messages as the whole.
    """
    bn = document_to_network(doc)
    problems = validate_values(bn)
    if problems:
        raise BifParseError("invalid network: " + "; ".join(problems))
    return bn


def parse_bif(text: str | bytes) -> BayesianNetwork:
    """Parse BIF text into a validated network."""
    return validated_network(parse_bif_document(text))


def _fmt(p: float) -> str:
    # repr round-trips binary64 exactly and stays readable.
    return repr(float(p))


def write_bif(bn: BayesianNetwork) -> str:
    """Serialize so that parse_bif(write_bif(bn)) is structurally equal to bn.

    Raises ValueError for a name or label that BIF text cannot carry. Each
    variable name and label must be one word: no whitespace, none of
    `{}()[]|,;`, and no `//` or `/*` at its start. The network name may be
    several words, separated by single spaces.
    """
    if not all(map(_WORD.fullmatch, bn.name.split(" "))):
        raise ValueError(f"network name {bn.name!r} is not words separated by single spaces")
    for v in bn.variables:
        if not _WORD.fullmatch(v.name):
            raise ValueError(f"variable name {v.name!r} is not one BIF word")
        for label in v.domain:
            if not _WORD.fullmatch(label):
                raise ValueError(f"variable {v.name}: label {label!r} is not one BIF word")
    lines = [f"network {bn.name} {{", "}"]
    for v in bn.variables:
        lines.append(f"variable {v.name} {{")
        labels = ", ".join(v.domain)
        lines.append(f"  type discrete [ {len(v.domain)} ] {{ {labels} }};")
        lines.append("}")
    for cpt in bn.cpts:
        v = bn.variables[cpt.owner]
        if not cpt.parents:
            lines.append(f"probability ( {v.name} ) {{")
            lines.append(f"  table {', '.join(_fmt(p) for p in cpt.rows[()])};")
        else:
            parent_names = ", ".join(bn.variables[p].name for p in cpt.parents)
            lines.append(f"probability ( {v.name} | {parent_names} ) {{")
            for key in sorted(cpt.rows):
                labels = ", ".join(
                    bn.variables[p].domain[k] for p, k in zip(cpt.parents, key)
                )
                lines.append(
                    f"  ({labels}) {', '.join(_fmt(p) for p in cpt.rows[key])};"
                )
        lines.append("}")
    return "\n".join(lines) + "\n"
