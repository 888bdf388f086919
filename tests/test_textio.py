import pytest

from quadsemi.model import Relation, presentation, presentation_hash
from quadsemi.textio import (
    PresentationSyntaxError,
    _parse_once,
    _parse_text,
    load_presentation,
    parse_presentation,
    render_json,
    render_presentation,
    save_presentation,
)

M2_TEXT = """\
# two generators, squares identified
generators 2

x2*x2 = x1*x1
x2*x1 = 0   # mandatory top monomial
"""


def test_parse_text_format(m2):
    assert parse_presentation(M2_TEXT) == m2


def test_parse_json_format(m2):
    text = '{"n": 2, "relations": [{"equal": [[2, 2], [1, 1]]}, {"zero": [2, 1]}]}'
    assert parse_presentation(text) == m2


def test_parse_json_orientation_is_canonicalised(m2):
    text = '{"n": 2, "relations": [{"equal": [[1, 1], [2, 2]]}, {"zero": [2, 1]}]}'
    assert parse_presentation(text) == m2


def test_header_required():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("x1*x1 = 0\n")
    assert err.value.line == 1
    assert "generators" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(PresentationSyntaxError, match="empty input"):
        parse_presentation("# nothing here\n\n")


def test_malformed_relation_reports_line():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators 2\nx2*x1 = 0\nx1 + x2\n")
    assert err.value.line == 3


def test_a_long_malformed_relation_is_abbreviated():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators 2\n\nx2*x1 = 0" + "z" * 5000 + "\n")
    message = str(err.value)
    assert err.value.line == 3
    assert message.startswith("line 3: malformed relation 'x2*x1 = 0zz")
    assert len(message) < 200 and "\n" not in message


def test_a_json_number_too_long_reports_its_line():
    text = '{"n": 2,\n "relations": [{"zero": [1, 1]},\n  {"zero": [%s, 1]}]}' % TOO_LONG
    with pytest.raises(PresentationSyntaxError, match="5000-digit number") as err:
        parse_presentation(text)
    assert err.value.line == 3


def test_letter_out_of_range_reports_line():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators 2\nx3*x1 = 0\n")
    assert err.value.line == 2
    assert "exceeds alphabet" in str(err.value)


@pytest.mark.parametrize("relation", ["x2*x4 = x1*x1", "x1*x1 = x4*x2", "x1*x2 = x2*x4"])
def test_letter_out_of_range_on_either_side(relation):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(f"generators 2\n# range\n{relation}\n")
    assert str(err.value) == "line 3: generator index 4 exceeds alphabet x1..x2"


def test_duplicate_after_canonicalisation_rejected():
    text = "generators 2\nx1*x1 = x2*x2\nx2*x2 = x1*x1\n"
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_self_equality_rejected():
    with pytest.raises(PresentationSyntaxError, match="distinct"):
        parse_presentation("generators 2\nx1*x2 = x1*x2\n")


def test_zero_generator_count_rejected():
    with pytest.raises(PresentationSyntaxError, match="at least 1"):
        parse_presentation("generators 0\n")


def test_invalid_json_reports_position():
    with pytest.raises(PresentationSyntaxError, match="invalid JSON"):
        parse_presentation('{"n": 2,')


def test_json_semantic_error_wrapped():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation('{"relations": []}')


def test_json_relations_must_be_a_list():
    with pytest.raises(PresentationSyntaxError, match="'relations' must be a list"):
        parse_presentation('{"n": 2, "relations": {"zero": [2, 1]}}')


@pytest.mark.parametrize("entry", [
    '[2, 1]', '{}', '{"zero": [2, 1], "equal": [[2, 2], [1, 1]]}'])
def test_json_relation_needs_one_kind_key(entry):
    text = f'{{"n": 2, "relations": [{{"zero": [2, 2]}}, {entry}]}}'
    with pytest.raises(PresentationSyntaxError,
                       match="relations entry 1: expected one 'zero' or 'equal' key"):
        parse_presentation(text)


@pytest.mark.parametrize("side", ["5", "[5]", '"ab"'])
def test_json_equal_side_must_be_a_pair(side):
    text = f'{{"n": 2, "relations": [{{"equal": [{side}, [2, 1]]}}]}}'
    with pytest.raises(PresentationSyntaxError, match="'equal' needs two pairs"):
        parse_presentation(text)


@pytest.mark.parametrize("text", [
    '{"n": 2, "relations": [{"zero": [2, true]}, {"equal": [[2, 2], [true, true]]}]}',
    '{"n": true, "relations": []}',
])
def test_json_booleans_are_not_generator_indices(text):
    # true == 1 in Python, so read as a letter it would build a presentation
    # equal to the integer one but with another canonical JSON and hash
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(text)


TOO_LONG = "9" * 5000  # past int()'s default 4300-digit limit


@pytest.mark.parametrize("text, line", [
    (f"generators {TOO_LONG}\n", 1),
    (f"generators 3\nx1*x1 = 0\nx{TOO_LONG}*x1 = 0\n", 3),
    (f'{{"n": {TOO_LONG}, "relations": []}}', 1),
], ids=["header", "letter", "json"])
def test_an_over_long_number_is_a_syntax_error(text, line):
    with pytest.raises(PresentationSyntaxError, match="too") as err:
        parse_presentation(text)
    assert err.value.line == line


@pytest.mark.parametrize("text", [
    f'{{"n": "{TOO_LONG}", "relations": []}}',
    f'{{"n": 2, "relations": [{{"zero": ["{TOO_LONG}", 1]}}]}}',
], ids=["n", "letter"])
def test_a_long_bad_value_is_abbreviated_in_the_error(text):
    with pytest.raises(PresentationSyntaxError, match=r"got .*\.\.\.") as err:
        parse_presentation(text)
    assert len(str(err.value)) < 120


@pytest.mark.parametrize("text, line", [
    ("generators \u0663\n", 1),
    ("generators 3\nx\u0661*x\u0661 = 0\n", 2),
], ids=["header", "letter"])
def test_non_ascii_digits_are_a_syntax_error(text, line):
    # U+0663 and U+0661 are the Arabic-Indic digits three and one
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert err.value.line == line


def test_whitespace_tolerance():
    p = parse_presentation("generators  3\n x3*x3   =  x2*x1 \nx3*x2=x1*x1\nx2*x2=0\nx3*x1 = 0")
    assert p == presentation(3, [
        Relation.equal((3, 3), (2, 1)),
        Relation.equal((3, 2), (1, 1)),
        Relation.zero(2, 2),
        Relation.zero(3, 1),
    ])


def test_render_then_parse_round_trip(m3, tower5):
    for p in (m3, tower5):
        assert parse_presentation(render_presentation(p)) == p
        assert parse_presentation(render_json(p)) == p


def test_render_text_shape(m2):
    text = render_presentation(m2)
    lines = text.splitlines()
    assert lines[0] == "generators 2"
    assert "x2*x2 = x1*x1" in lines
    assert "x2*x1 = 0" in lines
    assert text.endswith("\n")


def test_save_and_load(tmp_path, m4):
    text_path = tmp_path / "p.txt"
    json_path = tmp_path / "p.json"
    save_presentation(m4, text_path)
    save_presentation(m4, json_path, as_json=True)
    assert load_presentation(text_path) == m4
    assert load_presentation(json_path) == m4
    assert json_path.read_text().lstrip().startswith("{")


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("generators 2\n# caf\u00e9\nx2*x1 = 0\n".encode("latin-1"))
    with pytest.raises(PresentationSyntaxError, match="not UTF-8: byte 0xe9") as err:
        load_presentation(path)
    assert err.value.line == 2


class TestParseMemo:
    def test_a_repeated_text_is_parsed_once(self):
        first = parse_presentation(M2_TEXT)
        assert parse_presentation(M2_TEXT) is first
        info = _parse_once.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert first == _parse_text(M2_TEXT)

    def test_a_malformed_text_raises_on_every_call(self):
        text = "generators 2\nx2*x1 = 0\nx1 + x2\n"
        for _ in range(3):
            with pytest.raises(PresentationSyntaxError) as err:
                parse_presentation(text)
            assert err.value.line == 3
        assert _parse_once.cache_info().currsize == 0

    def test_spellings_of_one_presentation_agree(self, m2, tower5):
        for p in (m2, tower5):
            spellings = [render_presentation(p), render_json(p),
                         "# reordered\n" + "\n".join(
                             [f"generators {p.n}"] + [str(r) for r in reversed(p.relations)])]
            parsed = [parse_presentation(text) for text in spellings]
            assert all(q == p for q in parsed)
            assert {presentation_hash(q) for q in parsed} == {presentation_hash(p)}
        assert _parse_once.cache_info().misses == 6
