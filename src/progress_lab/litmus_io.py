"""Reading and writing the plain-text litmus wire format.

A file looks like::

    # optional comment
    test mutex
    locations 1
    values 2
    thread 0:
      0: axb loc=0 cmp=1 jump=0 exch=1
      1: axb loc=0 cmp=0 jump=2 exch=0
    thread 1:
      0: axb loc=0 cmp=1 jump=0 exch=1
      1: axb loc=0 cmp=0 jump=2 exch=0

`exch=none` encodes an instruction without an exchange write.  `#`
starts a comment anywhere; blank lines are ignored.  Serialization is
canonical (fixed field order, fixed two-space indent, no trailing
whitespace), so two tests are structurally equal exactly when their
serializations are byte-equal.

The parser reads the three header lines, in the order of one table,
before the thread blocks, and keeps two bounded caches, each emptied
when full:

- Blocks (`_BLOCKS`, up to 4,096 entries).  The text is cut at each
  newline followed by `thread `, and each chunk after the first maps,
  together with the `locations` and `values` counts, to its first
  thread id and its program tuples.  A hit only needs its first thread
  id to be the next one; then its tuples are shared by every test that
  spells the block.  A chunk is stored once the whole test has parsed,
  and only such chunks are, so a hit has nothing left to check.
- Instructions (`_DECODED`, up to 4,096 entries).  A chunk that misses
  is parsed line by line, and each distinct instruction spelling is
  decoded once per header: the four field words plus the two counts map
  to the checked `AxbInstruction`.  Everything else on the line (the
  index, its order, the `axb` keyword) is checked on every line.

Only successful parses are kept, so errors and their positions do not
depend on what was parsed before.  A (3,4) suite spells 2,040 distinct
blocks in 104,202 places, so nearly every block is a hit.
"""

from __future__ import annotations

import re

from .axb import AxbInstruction, LitmusTest


class LitmusParseError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _column(raw: str, word: int, shift: int = 0) -> int:
    """1-based column `shift` characters into the `word`-th word of `raw`
    (words as `str.split` finds them); only errors need it."""
    return [m.start() for m in re.finditer(r"\S+", raw)][word] + 1 + shift


def _parse_nat(token: str, what: str, lineno: int, raw: str, word: int, shift: int = 0) -> int:
    """ASCII digits only: `int` alone also takes signs, `_` and other scripts' digits.
    `token` sits `shift` characters into word `word` of `raw`."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than the interpreter converts
            pass
    elif token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise LitmusParseError(f"{what} must be non-negative", lineno, _column(raw, word, shift))
    raise LitmusParseError(
        f"expected a number for {what}, got {token!r}", lineno, _column(raw, word, shift)
    )


# The header lines in order, as (keyword, argument); a NAME is kept as
# written and an N is a number.
_HEADER = (("test", "NAME"), ("locations", "N"), ("values", "N"))
_FIELD_ORDER = ("loc", "cmp", "jump", "exch")

# Decoded instructions by (field words, locations, values); a suite
# spells a few hundred instructions thousands of times.  Emptied when full.
_DECODED: dict[tuple[str, str, str, str, int, int], AxbInstruction] = {}
_DECODED_MAX = 4096

# Every chunk of `text.split(_THREAD)` after the first starts a thread.
_THREAD = "\nthread "
# Parsed block chunks by (chunk text, locations, values), as (first
# thread id, program tuples).  Emptied when full.
_BLOCKS: dict[tuple[str, int, int], tuple[int, tuple[tuple[AxbInstruction, ...], ...]]] = {}
_BLOCKS_MAX = 4096


def _decode_instruction(
    words: list[str], lineno: int, raw: str, num_locations: int, value_domain: int
) -> AxbInstruction:
    """The instruction of one `IDX: axb ...` line, range-checked.

    The caller passes only six-word lines, so four field words with no
    unknown and no duplicate key name all four fields."""
    fields: dict[str, tuple[int, str]] = {}  # key -> (word index, value)
    for i, word in enumerate(words[2:], start=2):
        key, eq, value = word.partition("=")
        if not eq or key not in _FIELD_ORDER:
            raise LitmusParseError(f"unknown field {word!r}", lineno, _column(raw, i))
        if key in fields:
            raise LitmusParseError(f"duplicate field {key!r}", lineno, _column(raw, i))
        fields[key] = (i, value)

    def number(key: str) -> int:
        i, value = fields[key]
        return _parse_nat(value, key, lineno, raw, i, len(key) + 1)

    loc = number("loc")
    cmp = number("cmp")
    jump = number("jump")
    exch = None if fields["exch"][1] == "none" else number("exch")
    for key, n, what, bound, header in (
        ("loc", loc, "location", num_locations, "locations"),
        ("cmp", cmp, "compare value", value_domain, "values"),
        ("exch", exch, "exchange value", value_domain, "values"),
    ):
        if n is not None and n >= bound:
            raise LitmusParseError(
                f"{what} {n} out of range ({header} {bound})", lineno, _column(raw, fields[key][0])
            )
    return AxbInstruction(loc, cmp, jump, exch)


def _read_lines(lines, block, threads, located, num_locations: int, value_domain: int) -> None:
    """Parse body lines, (line number, text) pairs, onto `threads`.

    A thread line appends an empty program list to `threads`, and
    (thread id, `block`, its line number, one line number per
    instruction) to `located`, so that the checks after the last line
    can point at it."""
    for lineno, raw in lines:
        words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not words:
            continue

        if words[0] == "thread":
            if len(words) != 2 or not words[1].endswith(":"):
                raise LitmusParseError("expected 'thread N:'", lineno, _column(raw, 0))
            tid = _parse_nat(words[1][:-1], "thread id", lineno, raw, 1)
            if tid != len(threads):
                raise LitmusParseError(
                    f"thread ids must be sequential, expected {len(threads)}",
                    lineno,
                    _column(raw, 1),
                )
            threads.append([])
            located.append((tid, block, lineno, []))
        else:
            if not threads:
                raise LitmusParseError(
                    "instruction outside a thread block", lineno, _column(raw, 0)
                )
            if len(words) != 6 or not words[0].endswith(":") or words[1] != "axb":
                raise LitmusParseError(
                    "expected 'IDX: axb loc=L cmp=V jump=J exch=E'",
                    lineno,
                    _column(raw, 0),
                )
            program = threads[-1]
            idx = _parse_nat(words[0][:-1], "instruction index", lineno, raw, 0)
            if idx != len(program):
                raise LitmusParseError(
                    f"instruction indices must be sequential, expected {len(program)}",
                    lineno,
                    _column(raw, 0),
                )
            key = (words[2], words[3], words[4], words[5], num_locations, value_domain)
            ins = _DECODED.get(key)
            if ins is None:
                ins = _decode_instruction(words, lineno, raw, num_locations, value_domain)
                if len(_DECODED) >= _DECODED_MAX:
                    _DECODED.clear()
                _DECODED[key] = ins
            program.append(ins)
            located[-1][3].append(lineno)


def _lines_before(chunks: list[str], block: int) -> int:
    """How many lines of the text come before the first line of chunk
    `block` of `text.split(_THREAD)`, counted as `str.splitlines` does."""
    return len((_THREAD.join(chunks[:block]) + "\n").splitlines()) if block else 0


def parse_litmus(text: str) -> LitmusTest:
    """Parse one litmus test, rejecting malformed and out-of-range input."""
    chunks = text.split(_THREAD)
    # The header loop and `_read_lines` read this iterator and skip blank
    # lines inline: a generator filtering them first made parsing 5-10%
    # slower.
    lines = enumerate(chunks[0].splitlines(), start=1)
    header = []
    for keyword, argument in _HEADER:
        for lineno, raw in lines:
            words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if words:
                break
        else:
            if len(chunks) > 1:  # the next line is a thread line
                raise LitmusParseError(
                    f"expected '{keyword} {argument}'", _lines_before(chunks, 1) + 1
                )
            raise LitmusParseError("incomplete test: missing header lines", 1)
        if words[0] != keyword or len(words) != 2:
            raise LitmusParseError(f"expected '{keyword} {argument}'", lineno, _column(raw, 0))
        value = words[1]
        header.append(value if argument == "NAME" else _parse_nat(value, keyword, lineno, raw, 1))
    name, num_locations, value_domain = header
    # Programs: tuples from the block cache, lists parsed from lines.
    threads: list[tuple[AxbInstruction, ...] | list[AxbInstruction]] = []
    # One entry per parsed thread, as `_read_lines` appends them, with
    # line numbers counted from the first line of their chunk.
    located: list[tuple[int, int, int, list[int]]] = []
    _read_lines(lines, 0, threads, located, num_locations, value_domain)
    fresh = []  # (cache key, first thread id, end thread id) per chunk parsed
    for block in range(1, len(chunks)):
        key = (chunks[block], num_locations, value_domain)
        cached = _BLOCKS.get(key)
        if cached is not None and cached[0] == len(threads):
            threads.extend(cached[1])
            continue
        first = len(threads)
        try:
            _read_lines(
                enumerate(("thread " + chunks[block]).splitlines(), start=1),
                block,
                threads,
                located,
                num_locations,
                value_domain,
            )
        except LitmusParseError as exc:
            raise LitmusParseError(
                exc.message, exc.line + _lines_before(chunks, block), exc.column
            ) from None
        fresh.append((key, first, len(threads)))

    if not threads:
        raise LitmusParseError("test declares no threads", 1)
    # Cached blocks passed these checks in the test they were parsed in.
    for tid, block, lineno, instr_lines in located:
        program = threads[tid]
        if not program:
            raise LitmusParseError(
                f"thread {tid} has no instructions", lineno + _lines_before(chunks, block)
            )
        for idx, ins in enumerate(program):
            # jump == program length is the branch to "done"; beyond that is an error.
            if ins.jump > len(program):
                raise LitmusParseError(
                    f"jump target {ins.jump} out of range (thread {tid} has "
                    f"{len(program)} instructions)",
                    instr_lines[idx] + _lines_before(chunks, block),
                )
    programs = tuple(map(tuple, threads))
    test = LitmusTest(name, num_locations, value_domain, programs)
    for key, first, end in fresh:
        if len(_BLOCKS) >= _BLOCKS_MAX:
            _BLOCKS.clear()
        _BLOCKS[key] = (first, programs[first:end])
    return test


def serialize_program(program: tuple[AxbInstruction, ...]) -> str:
    """Instruction lines of one thread, each ending in a newline."""
    return "".join(
        f"  {idx}: axb loc={ins.loc} cmp={ins.cmp} jump={ins.jump} "
        f"exch={'none' if ins.exch is None else ins.exch}\n"
        for idx, ins in enumerate(program)
    )


def join_body(texts, num_locations: int, value_domain: int) -> str:
    """Body text from each thread's `serialize_program` text, in thread order."""
    return f"locations {num_locations}\nvalues {value_domain}\n" + "".join(
        f"thread {tid}:\n{text}" for tid, text in enumerate(texts)
    )


def serialize_body(
    threads: tuple[tuple[AxbInstruction, ...], ...], num_locations: int, value_domain: int
) -> str:
    """Canonical text of a test minus its name line (used for dedup keys)."""
    return join_body(map(serialize_program, threads), num_locations, value_domain)


def serialize_litmus(test: LitmusTest) -> str:
    """Canonical full text; `parse_litmus(serialize_litmus(t))` equals `t`."""
    return f"test {test.name}\n" + serialize_body(
        test.threads, test.num_locations, test.value_domain
    )
