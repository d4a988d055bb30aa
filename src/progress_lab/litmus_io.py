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

The parser decodes each distinct instruction spelling once per header:
a bounded cache maps the four field words plus the `locations` and
`values` counts to the checked `AxbInstruction`.  Only successful
decodes are kept, and everything else on the line (the index, its
order, the `axb` keyword) is checked on every line, so errors and their
positions do not depend on what was parsed before.
"""

from __future__ import annotations

import re

from .axb import AxbInstruction, LitmusTest


class LitmusParseError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
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


_FIELD_ORDER = ("loc", "cmp", "jump", "exch")

# Decoded instructions by (field words, locations, values); a suite
# spells a few hundred instructions thousands of times.  Emptied when full.
_DECODED: dict[tuple[str, str, str, str, int, int], AxbInstruction] = {}
_DECODED_MAX = 4096


def _decode_instruction(
    words: list[str], lineno: int, raw: str, num_locations: int, value_domain: int
) -> AxbInstruction:
    """The instruction of one `IDX: axb ...` line, range-checked."""
    fields: dict[str, tuple[int, str]] = {}  # key -> (word index, value)
    for i, word in enumerate(words[2:], start=2):
        key, eq, value = word.partition("=")
        if not eq or key not in _FIELD_ORDER:
            raise LitmusParseError(f"unknown field {word!r}", lineno, _column(raw, i))
        if key in fields:
            raise LitmusParseError(f"duplicate field {key!r}", lineno, _column(raw, i))
        fields[key] = (i, value)
    for key in _FIELD_ORDER:
        if key not in fields:
            raise LitmusParseError(f"missing field {key!r}", lineno)

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


def parse_litmus(text: str) -> LitmusTest:
    """Parse one litmus test, rejecting malformed and out-of-range input."""
    name: str | None = None
    num_locations: int | None = None
    value_domain: int | None = None
    threads: list[list[AxbInstruction]] = []
    thread_lines: list[int] = []
    # Line number per instruction so jump targets can be checked once the
    # owning thread's length is known.
    instr_lines: list[list[int]] = []

    phase = "test"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not words:
            continue

        if phase == "test":
            if words[0] != "test" or len(words) != 2:
                raise LitmusParseError("expected 'test NAME'", lineno, _column(raw, 0))
            name = words[1]
            phase = "locations"
        elif phase == "locations":
            if words[0] != "locations" or len(words) != 2:
                raise LitmusParseError("expected 'locations N'", lineno, _column(raw, 0))
            num_locations = _parse_nat(words[1], "locations", lineno, raw, 1)
            phase = "values"
        elif phase == "values":
            if words[0] != "values" or len(words) != 2:
                raise LitmusParseError("expected 'values N'", lineno, _column(raw, 0))
            value_domain = _parse_nat(words[1], "values", lineno, raw, 1)
            phase = "threads"
        elif words[0] == "thread":
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
            thread_lines.append(lineno)
            instr_lines.append([])
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
            instr_lines[-1].append(lineno)

    if name is None or num_locations is None or value_domain is None:
        raise LitmusParseError("incomplete test: missing header lines", 1)
    if not threads:
        raise LitmusParseError("test declares no threads", 1)
    for tid, program in enumerate(threads):
        if not program:
            raise LitmusParseError(f"thread {tid} has no instructions", thread_lines[tid])
        for idx, ins in enumerate(program):
            # jump == program length is the branch to "done"; beyond that is an error.
            if ins.jump > len(program):
                raise LitmusParseError(
                    f"jump target {ins.jump} out of range (thread {tid} has "
                    f"{len(program)} instructions)",
                    instr_lines[tid][idx],
                )
    return LitmusTest(name, num_locations, value_domain, tuple(tuple(p) for p in threads))


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
