"""Wire format: parsing, serialization, and error positions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progress_lab import litmus_io
from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.litmus_io import (
    LitmusParseError,
    parse_litmus,
    serialize_body,
    serialize_litmus,
)
from strategies import litmus_tests

I = AxbInstruction

SAMPLE = """\
# two spinning threads
test demo
locations 2
values 2
thread 0:
  0: axb loc=0 cmp=1 jump=0 exch=1
  1: axb loc=1 cmp=0 jump=2 exch=none
thread 1:
  0: axb loc=0 cmp=0 jump=0 exch=none
"""


def test_parse_sample():
    t = parse_litmus(SAMPLE)
    assert t.name == "demo"
    assert t.num_locations == 2 and t.value_domain == 2
    assert t.threads == (
        (I(0, 1, 0, 1), I(1, 0, 2, None)),
        (I(0, 0, 0, None),),
    )


def test_comments_and_blank_lines_ignored():
    noisy = SAMPLE.replace("test demo", "\n# note\n\ntest demo  # trailing")
    assert parse_litmus(noisy) == parse_litmus(SAMPLE)


@given(litmus_tests(max_locations=3, max_values=3))
def test_roundtrip(t):
    assert parse_litmus(serialize_litmus(t)) == t


def test_serialize_is_canonical():
    t = parse_litmus(SAMPLE)
    assert serialize_litmus(t) == serialize_litmus(parse_litmus(serialize_litmus(t)))
    assert serialize_litmus(t).endswith("\n")
    # body excludes the name; two same-body tests serialize identically
    renamed = LitmusTest("other", t.num_locations, t.value_domain, t.threads)
    assert serialize_body(t.threads, 2, 2) == serialize_body(renamed.threads, 2, 2)


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("test demo\n", ""), "test"),
        (lambda s: s.replace("locations 2\n", ""), "locations"),
        (lambda s: s.replace("values 2\n", ""), "values"),
        (lambda s: s.replace("thread 1:", "thread 7:"), "thread"),
        (lambda s: s.replace("loc=0 cmp=1", "loc=9 cmp=1"), "location"),
        (lambda s: s.replace("cmp=1", "cmp=5"), "value"),
        (lambda s: s.replace("jump=2", "jump=9"), "jump"),
        (lambda s: s.replace("exch=1", "exch=9"), "value"),
        (lambda s: s.replace("  1: axb", "  7: axb"), "sequential"),
        (lambda s: s.replace("axb", "nop", 1), "axb"),
        (lambda s: s.replace("cmp=1 ", ""), "cmp"),
        (lambda s: s + "thread 2:\n", "instructions"),
        (lambda s: s.replace("locations 2", "locations -1"), "non-negative"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(mangle(SAMPLE))
    assert fragment in str(err.value)


def test_error_carries_position():
    bad = SAMPLE.replace("cmp=1", "cmp=5")
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(bad)
    assert err.value.line == 6
    assert err.value.column == bad.splitlines()[5].find("cmp=5") + 1
    # jump targets are only checkable after the thread ends; still located
    late = SAMPLE.replace("jump=2", "jump=9")
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(late)
    assert err.value.line == 7


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("locations 2", "locations 1_0",
         "line 3, column 11: expected a number for locations, got '1_0'"),
        ("values 2", "values +2", "line 4, column 8: expected a number for values, got '+2'"),
        ("values 2", "values \uff12",
         "line 4, column 8: expected a number for values, got '\uff12'"),
        ("thread 1:", "thread \u0661:",
         "line 8, column 8: expected a number for thread id, got '\u0661'"),
        ("  1: axb loc=1", "  +1: axb loc=1",
         "line 7, column 3: expected a number for instruction index, got '+1'"),
        ("  1: axb loc=1", "  1: axb loc=\u0661",
         "line 7, column 14: expected a number for loc, got '\u0661'"),
        ("locations 2", "locations -1", "line 3, column 11: locations must be non-negative"),
        ("locations 2", "locations -0", "line 3, column 11: locations must be non-negative"),
        ("  1: axb", "  -1: axb", "line 7, column 3: instruction index must be non-negative"),
        ("cmp=0 jump=2", "cmp=-x jump=2", "line 7, column 20: expected a number for cmp, got '-x'"),
    ],
)
def test_numbers_are_ascii_digits_only(old, new, message):
    assert old in SAMPLE
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(SAMPLE.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("exch=1", "exch=a", "line 6, column 34: expected a number for exch, got 'a'"),
        ("exch=1", "exch=", "line 6, column 34: expected a number for exch, got ''"),
        ("values 2", "values a", "line 4, column 8: expected a number for values, got 'a'"),
        ("locations 2", "locations o",
         "line 3, column 11: expected a number for locations, got 'o'"),
        ("thread 1:", "thread a:", "line 8, column 8: expected a number for thread id, got 'a'"),
    ],
)
def test_error_column_is_that_of_the_named_word(old, new, message):
    # The bad text also occurs earlier on its line, or not at all.
    assert SAMPLE.count(old) == 1
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(SAMPLE.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (SAMPLE.replace("exch=1", "foo=1"), "line 6, column 29: unknown field 'foo=1'"),
        (SAMPLE.replace("cmp=1", "loc=1"), "line 6, column 16: duplicate field 'loc'"),
        (SAMPLE.replace("thread 0:", "thread 0"), "line 5, column 1: expected 'thread N:'"),
        ("test x", "line 1, column 1: incomplete test: missing header lines"),
        ("test x\nlocations 1\nvalues 2\n", "line 1, column 1: test declares no threads"),
    ],
)
def test_malformed_structure_messages(text, message):
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(text)
    assert str(err.value) == message


def test_blank_and_comment_lines_inside_a_thread_block_are_ignored():
    noisy = SAMPLE.replace("  1: axb loc=1", "\n  # note\n  1: axb loc=1")
    assert noisy.count("\n") == SAMPLE.count("\n") + 2
    assert parse_litmus(noisy) == parse_litmus(SAMPLE)


def test_overlong_number_is_a_parse_error():
    with pytest.raises(LitmusParseError, match="line 4, column 8: expected a number for values"):
        parse_litmus(SAMPLE.replace("values 2", "values " + "1" * 5000))


def test_exch_none_token():
    t = parse_litmus(SAMPLE)
    assert t.threads[0][1].exch is None
    assert "exch=none" in serialize_litmus(t)


def test_duplicate_sections_rejected():
    dup = SAMPLE + "thread 0:\n  0: axb loc=0 cmp=0 jump=1 exch=none\n"
    with pytest.raises(LitmusParseError):
        parse_litmus(dup)


@pytest.mark.parametrize("name", ["../escape", "a/b", "..", ".", "a\\b"])
def test_name_must_be_one_path_component(name):
    # suites and kernels are written to files named after the test
    with pytest.raises(ValueError, match="single path component"):
        parse_litmus(SAMPLE.replace("test demo", f"test {name}"))
    with pytest.raises(ValueError, match="single path component"):
        LitmusTest(name, 1, 2, ((I(0, 0, 1, None),),))


@pytest.mark.parametrize("name", ["a b", "nl\nname", "tab\tname", " lead", "x#y", "#"])
def test_name_must_be_one_word_of_litmus_text(name):
    # serialize_litmus writes the name as the one word of the `test`
    # line, and parse_litmus cuts it at whitespace or a `#` comment
    with pytest.raises(ValueError, match="litmus text cannot carry"):
        LitmusTest(name, 1, 2, ((I(0, 0, 1, None),),))


WIDE = """\
test wide
locations 2
values 3
thread 0:
  0: axb loc=1 cmp=2 jump=1 exch=2
"""


@pytest.mark.parametrize(
    "header, message, token",
    [
        ("locations 1\nvalues 3", "location 1 out of range (locations 1)", "loc=1"),
        ("locations 2\nvalues 2", "compare value 2 out of range (values 2)", "cmp=2"),
    ],
)
def test_cached_spelling_is_rechecked_under_a_smaller_header(header, message, token):
    # The spelling decodes under locations 2 / values 3 first.
    assert parse_litmus(WIDE).threads == ((I(1, 2, 1, 2),),)
    narrow = WIDE.replace("locations 2\nvalues 3", header)
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(narrow)
    line = narrow.splitlines()[4]
    assert str(err.value) == f"line 5, column {line.find(token) + 1}: {message}"
    assert (err.value.line, err.value.column) == (5, line.find(token) + 1)


@pytest.mark.parametrize(
    "line, message",
    [
        ("  0: nop loc=0 cmp=1 jump=0 exch=1", "line 6, column 3: expected 'IDX: axb"),
        ("  0 axb loc=0 cmp=1 jump=0 exch=1", "line 6, column 3: expected 'IDX: axb"),
        ("  x: axb loc=0 cmp=1 jump=0 exch=1",
         "line 6, column 3: expected a number for instruction index, got 'x'"),
        ("  1: axb loc=0 cmp=1 jump=0 exch=1",
         "line 6, column 3: instruction indices must be sequential, expected 0"),
        ("  0: axb loc=0 cmp=1 jump=0 exch=1 exch=1", "line 6, column 3: expected 'IDX: axb"),
    ],
)
def test_malformed_line_raises_after_its_fields_were_cached(line, message):
    # SAMPLE's line 6 spells these fields well-formed.
    parse_litmus(SAMPLE)
    bad = SAMPLE.replace("  0: axb loc=0 cmp=1 jump=0 exch=1", line)
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(bad)
    assert str(err.value).startswith(message)
    # Before any thread block the same fields are still out of place.
    stray = SAMPLE.replace("thread 0:\n", "")
    with pytest.raises(LitmusParseError, match="line 5, column 3: instruction outside"):
        parse_litmus(stray)


def test_decode_cache_stays_within_its_bound():
    count = 3 * litmus_io._DECODED_MAX
    lines = ["test many", "locations 1", f"values {count}", "thread 0:"]
    lines += [f"  {i}: axb loc=0 cmp={i} jump={i + 1} exch={i}" for i in range(count)]
    test = parse_litmus("\n".join(lines) + "\n")
    assert test.threads[0][-1] == I(0, count - 1, count, count - 1)
    assert 0 < len(litmus_io._DECODED) <= litmus_io._DECODED_MAX


def _clear_caches():
    litmus_io._DECODED.clear()
    litmus_io._BLOCKS.clear()


def _outcome(text):
    """The parsed test, or the error's type, message and position."""
    try:
        return parse_litmus(text)
    except LitmusParseError as exc:
        return "LitmusParseError", str(exc), exc.line, exc.column
    except ValueError as exc:
        return "ValueError", str(exc)


# Lines a mutation may insert: thread lines (one indented, so that it
# stays inside its chunk), instructions, a header line, noise.
_EXTRA_LINES = (
    "",
    "# note",
    "thread 0:",
    "thread 1:",
    "thread 2: # c",
    "  thread 1:",
    "  0: axb loc=0 cmp=0 jump=1 exch=none",
    "  1: axb loc=1 cmp=1 jump=0 exch=1",
    "  0: axb loc=2 cmp=2 jump=3 exch=2",
    "values 2",
)


_NUMBERED = (["locations"], ["values"])


@st.composite
def _mutated(draw, base: str, sep: str):
    """`base` with a few lines inserted, deleted or duplicated, thread
    blocks deleted, or thread ids, header or instruction numbers changed,
    its lines ended by `sep`."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["insert", "delete", "duplicate", "block", "thread", "header", "field"]
            )
        )
        if kind == "insert":
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(_EXTRA_LINES)))
            continue
        if kind in ("block", "thread"):
            where = [i for i, line in enumerate(lines) if line.startswith("thread ")]
        elif kind == "field":
            where = [i for i, line in enumerate(lines) if " axb " in line]
        else:
            # Header lines only change their numbers: most other edits of
            # one would stop every parse at the header.
            header = [i for i, line in enumerate(lines) if line.split()[:1] in _NUMBERED]
            where = header if kind == "header" else sorted(set(range(len(lines))) - set(header))
        if not where:
            continue
        at = draw(st.sampled_from(where))
        if kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "block":
            end = at + 1
            while end < len(lines) and not lines[end].startswith("thread "):
                end += 1
            del lines[at:end]
        elif kind == "thread":
            lines[at] = f"thread {draw(st.integers(0, 3))}:"
        elif kind == "field":
            words = lines[at].split()
            i = draw(st.integers(2, 5))
            words[i] = f"{words[i].partition('=')[0]}={draw(st.integers(0, 4))}"
            lines[at] = "  " + " ".join(words)
        else:
            lines[at] = f"{lines[at].split()[0]} {draw(st.integers(0, 4))}"
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


# A mismatch needs a drawn test and edits to line up: about one example
# in fifty wrongly served from a cache shows it.
@settings(max_examples=300)
@given(st.data())
def test_parse_outcome_does_not_depend_on_the_caches(data):
    base = serialize_litmus(data.draw(litmus_tests(max_locations=3, max_values=3)))
    sep = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    related = data.draw(st.lists(_mutated(base, sep), max_size=3))
    text = data.draw(_mutated(base, sep))
    _clear_caches()
    cold = _outcome(text)
    for warm in (base.replace("\n", sep), *related, text):
        _outcome(warm)
    assert _outcome(text) == cold


THREE = """\
test three
locations 2
values 3
thread 0:
  0: axb loc=0 cmp=1 jump=0 exch=1
thread 1:
  0: axb loc=1 cmp=0 jump=1 exch=none

thread 2:
  0: axb loc=0 cmp=2 jump=0 exch=none
  1: axb loc=1 cmp=0 jump=2 exch=2
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        # thread 2's block, cached under values 3, read under values 2
        ("values 3", "values 2", "line 10, column 16: compare value 2 out of range (values 2)"),
        # thread 2's cached block at position 1
        ("thread 1:\n  0: axb loc=1 cmp=0 jump=1 exch=none\n", "",
         "line 7, column 8: thread ids must be sequential, expected 1"),
        # the blank line before thread 2 counts
        ("jump=2 exch=2", "jump=3 exch=2",
         "line 11, column 1: jump target 3 out of range (thread 2 has 2 instructions)"),
    ],
)
def test_cached_blocks_raise_what_a_cold_parse_raises(old, new, message):
    _clear_caches()
    assert parse_litmus(THREE).threads[2] == (I(0, 2, 0, None), I(1, 0, 2, 2))
    assert len(litmus_io._BLOCKS) == 3
    bad = THREE.replace(old, new)
    with pytest.raises(LitmusParseError) as warm:
        parse_litmus(bad)
    assert str(warm.value) == message
    _clear_caches()
    with pytest.raises(LitmusParseError) as cold:
        parse_litmus(bad)
    assert (str(cold.value), cold.value.line, cold.value.column) == (
        message, warm.value.line, warm.value.column
    )


def test_thread_line_after_a_blank_line_is_counted():
    text = "test x\nlocations 1\nvalues 1\n\nthread 1:\n  0: axb loc=0 cmp=0 jump=1 exch=none\n"
    with pytest.raises(LitmusParseError) as err:
        parse_litmus(text)
    assert (err.value.line, err.value.column) == (5, 8)
    with pytest.raises(LitmusParseError) as err:
        parse_litmus("test x\nlocations 1\n\nthread 0:\n")
    assert str(err.value) == "line 4, column 1: expected 'values N'"


def test_tests_spelling_one_block_share_its_program_tuple():
    other = SAMPLE.replace("test demo", "test other").replace("cmp=1 jump=0", "cmp=0 jump=0", 1)
    a, b = parse_litmus(SAMPLE), parse_litmus(other)
    assert a.threads[0] != b.threads[0]
    assert a.threads[1] is b.threads[1]


def test_block_cache_stays_within_its_bound():
    count = 3 * litmus_io._BLOCKS_MAX
    lines = ["test many", "locations 1", "values 1"]
    for tid in range(count):
        lines += [f"thread {tid}:", "  0: axb loc=0 cmp=0 jump=1 exch=none"]
    test = parse_litmus("\n".join(lines) + "\n")
    assert len(test.threads) == count
    assert 0 < len(litmus_io._BLOCKS) <= litmus_io._BLOCKS_MAX
