"""The array path of a JSON body against ``json.loads`` + ``ranking_set_from_dict``.

For every body, :func:`cut_orders` and :func:`parse_orders` must either
decline it or lead to exactly what the whole-body decode gives: the same
positions, labels, weights and fingerprint, or the same error.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import fingerprint_ranking_set
from repro.io.serialization import cut_orders, parse_orders, ranking_set_from_dict

DEFER = "defer"


def outcome(build):
    """A comparable record of a build: the set's contents, or its error."""
    try:
        rankings = build()
    except Exception as exc:  # noqa: BLE001 - errors are compared, not raised
        return ("error", type(exc).__name__, str(exc))
    return (
        "set",
        rankings.position_matrix().tolist(),
        rankings.labels,
        rankings.weights.tolist(),
        fingerprint_ranking_set(rankings),
    )


def array_path(raw: bytes):
    """The scanner's outcome for ``raw``, or :data:`DEFER`."""
    cut = cut_orders(raw)
    if cut is None:
        return DEFER
    rest, text = cut
    matrix = parse_orders(text)
    if matrix is None:
        return DEFER
    # The cut decodes, on its own, to the matrix, and the rest is the body.
    assert json.loads(text) == matrix.tolist()
    body = json.loads(raw)
    rebuilt = {**rest, "rankings": {**rest["rankings"], "orders": matrix.tolist()}}
    assert json.dumps(rebuilt, sort_keys=True) == json.dumps(body, sort_keys=True)
    return outcome(lambda: ranking_set_from_dict({**rest["rankings"], "orders": matrix}))


def fallback_path(raw: bytes):
    """What ``json.loads`` + ``ranking_set_from_dict`` make of ``raw``."""
    try:
        body = json.loads(raw)
    except ValueError as exc:
        return ("json error", str(exc))
    return outcome(lambda: ranking_set_from_dict(body["rankings"]))


def assert_paths_agree(raw: bytes) -> str:
    """Assert the array path defers or matches the fallback; return which."""
    scanned = array_path(raw)
    if scanned == DEFER:
        return DEFER
    assert scanned == fallback_path(raw)
    return scanned[0]


def body_of(orders_text: str, **fields: object) -> bytes:
    rest = "".join(f", {json.dumps(key)}: {json.dumps(value)}" for key, value in fields.items())
    return ('{"rankings": {"orders": ' + orders_text + rest + '}, "delta": 0.1}').encode()


class TestAccepts:
    @pytest.mark.parametrize(
        "orders_text",
        [
            "[[0, 1, 2], [2, 1, 0]]",
            "[[0,1,2],[2,1,0]]",
            "[\n  [\n    0,\n    1,\n    2\n  ],\n  [2 ,1 , 0 ]\n]",
            "[ [ 0 ,\t1 , 2 ] , [ 2 , 1 , 0 ] ]",
            "[[0]]",
        ],
    )
    def test_whitespace_variants_take_the_array_path(self, orders_text):
        raw = body_of(orders_text, labels=["a", "b"][: orders_text.count("[") - 1])
        assert assert_paths_agree(raw) == "set"

    def test_serialised_profiles_match_at_two_widths(self):
        rng = np.random.default_rng(3)
        for n in (10, 200, 1001):
            orders = [rng.permutation(n).tolist() for _ in range(7)]
            raw = json.dumps(
                {"rankings": {"orders": orders, "weights": (rng.random(7) + 0.5).tolist()}}
            ).encode()
            assert assert_paths_agree(raw) == "set"

    def test_invalid_rankings_give_the_fallback_errors(self):
        for orders_text in ("[[0, 0], [1, 0]]", "[[0, 2], [1, 0]]", "[[1]]"):
            assert assert_paths_agree(body_of(orders_text)) == "error"
        # Labels and weights are checked after the orders, on both paths.
        assert assert_paths_agree(body_of("[[0, 1]]", labels=["a", "b"])) == "error"
        assert assert_paths_agree(body_of("[[0, 1]]", weights=[-1.0])) == "error"


class TestDefers:
    @pytest.mark.parametrize(
        "orders_text",
        [
            "[[0, 01], [1, 0]]",  # leading zero: np.fromstring reads 1
            "[[0, 1,], [1, 0]]",  # trailing comma: np.fromstring drops it
            "[[0, 1], [1, 0],]",
            "[[0, -1], [1, 0]]",
            "[[0, 1.0], [1, 0]]",
            "[[0, 1e0], [1, 0]]",
            "[[0, 1], [1]]",  # ragged
            "[[0, 1], []]",  # empty row
            "[[]]",
            "[]",
            "[[0, 1], [1, 0]",  # truncated
            "[[0, 1] [1, 0]]",  # missing comma
            "[[0 1], [1, 0]]",  # whitespace inside a row splits a number
            "[[0, 1 0]]",
            "[[[0, 1]], [[1, 0]]]",  # three deep
            "[[0, 10], [1, 0]]",  # wider than n - 1
            "[[0, 1000000000000000000000], [1, 0]]",
            '[[0, "1"], [1, 0]]',
            "[[true, false]]",
            # Each of these passes every check but one.
            "[[0, 1, 2, 3, 4, 05, 6, 7, 8, 9, 10]]",  # leading zero within the width
            "[[1 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]",  # "1 0" compacts to the id 10
            "[[0, 1], [1, 0, 1], [0]]",  # ragged, with the right total count
            "[01, 0], [0, 1]]",  # one deep at the start
            "[[1, 0], [0, 1] 9]",  # garbage before the last bracket
            "[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, -1]]",  # a sign within the width
            "[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1.]]",
        ],
    )
    def test_off_grammar_orders_defer(self, orders_text):
        assert array_path(body_of(orders_text)) == DEFER

    def test_a_look_alike_before_the_real_key_defers(self):
        raw = (
            b'{"meta": {"orders": [[1, 0]]}, "rankings": {"orders": [[0, 1]]}}'
        )
        assert array_path(raw) == DEFER
        assert fallback_path(raw)[0] == "set"

    def test_a_duplicate_key_defers_to_the_last_one(self):
        raw = b'{"rankings": {"orders": [[0, 1]], "orders": [[1, 0]]}}'
        assert array_path(raw) == DEFER
        assert fallback_path(raw)[1] == [[1, 0]]

    def test_orders_text_inside_a_string_is_not_cut(self):
        raw = json.dumps(
            {"rankings": {"labels": ['"orders": [[1, 0]]'], "orders": [[0, 1]]}}
        ).encode()
        assert assert_paths_agree(raw) == "set"
        raw = b'{"x\\"orders": [[1, 0]], "rankings": {"orders": [[0, 1]]}}'
        assert array_path(raw) == DEFER

    def test_a_string_value_of_the_real_key_is_not_the_placeholder(self):
        # A string that decoded to a fixed placeholder would pass for the
        # cut; the placeholder is random, so no body can spell it in advance.
        raw = b'{"rankings": {"orders": "\\u0030"}, "meta": {"orders": [[0]]}}'
        assert array_path(raw) == DEFER

    def test_bodies_that_are_not_objects_defer(self):
        for raw in (
            b"",
            b"[]",
            b'"orders": [[0]]',
            b'[{"rankings": {"orders": [[0]]}}]',
            b'{"rankings": 5, "orders": [[0]]}',
        ):
            assert array_path(raw) == DEFER


# ----------------------------------------------------------------------
# generated bodies
# ----------------------------------------------------------------------
WHITESPACE = st.sampled_from(["", "", "", " ", "\n", "\t", "  ", " \r\n "])

NUMBER_SPELLINGS = st.sampled_from(
    ["leading-zero", "negative", "float", "exponent", "string", "bool", "huge"]
)


def spell(value: int, how: str) -> str:
    return {
        "plain": str(value),
        "leading-zero": f"0{value}",
        "negative": f"-{value}",
        "float": f"{value}.0",
        "exponent": f"{value}e0",
        "string": f'"{value}"',
        "bool": "true" if value else "false",
        "huge": str(value + 10**20),
    }[how]


@st.composite
def orders_texts(draw) -> tuple[str, int]:
    """A rows-of-ids array text, usually well formed, sometimes with one flaw,
    and its number of rows."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        if draw(st.integers(0, 6)):
            rows.append(list(draw(st.permutations(range(n)))))
        else:
            rows.append(draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n)))
    spellings = [["plain"] * len(row) for row in rows]
    flaw = draw(st.sampled_from(["none"] * 4 + ["spelling", "length"]))
    if flaw == "spelling":
        row = draw(st.integers(0, m - 1))
        spellings[row][draw(st.integers(0, n - 1))] = draw(NUMBER_SPELLINGS)
    elif flaw == "length":
        row = draw(st.integers(0, m - 1))
        rows[row] = rows[row][: draw(st.integers(0, n + 1))] + [0] * draw(st.integers(0, 1))
        spellings[row] = ["plain"] * len(rows[row])
    parts = []
    for row, how in zip(rows, spellings):
        items = [spell(value, spelling) for value, spelling in zip(row, how)]
        separator = draw(WHITESPACE) + "," + draw(WHITESPACE)
        parts.append("[" + draw(WHITESPACE) + separator.join(items) + draw(WHITESPACE) + "]")
    separator = draw(WHITESPACE) + "," + draw(WHITESPACE)
    text = "[" + draw(WHITESPACE) + separator.join(parts) + draw(WHITESPACE) + "]"
    if draw(st.integers(0, 9)) == 0:
        text = text + ","  # a trailing separator inside the rankings object
    return text, m


LABEL_TEXT = st.sampled_from(
    ["a", "orders", '"orders": [[0]]', "\\", '"', "xé", '{"orders": [[1, 0]]}']
)


@st.composite
def bodies(draw) -> bytes:
    orders, m = draw(orders_texts())
    members = [f'"orders":{draw(WHITESPACE)}{orders}']
    if draw(st.booleans()):
        count = m if draw(st.integers(0, 4)) else draw(st.integers(0, 5))
        labels = draw(st.lists(LABEL_TEXT, min_size=count, max_size=count))
        members.append(f'"labels": {json.dumps(labels)}')
    if draw(st.booleans()):
        count = m if draw(st.integers(0, 4)) else draw(st.integers(0, 5))
        weight = st.sampled_from(["1.0", "0.5", "2", "1.0", "0.25", "0", "-1", "NaN", "Infinity"])
        weights = draw(st.lists(weight, min_size=count, max_size=count))
        members.append(f'"weights": [{", ".join(weights)}]')
    if draw(st.integers(0, 7)) == 0:
        members.append('"orders": [[0]]')  # a duplicate key: the last wins
    draw(st.randoms()).shuffle(members)
    rankings = "{" + ", ".join(members) + "}"
    top = [f'"rankings": {rankings}', '"delta": 0.1', '"method": "fair-borda"']
    if draw(st.integers(0, 5)) == 0:
        top.append('"meta": {"orders": [[1, 0]]}')  # a nested look-alike
    if draw(st.integers(0, 5)) == 0:
        top.append(f'"note": {json.dumps(chr(34) + "orders" + chr(34) + ": " + orders)}')
    draw(st.randoms()).shuffle(top)
    raw = ("{" + ", ".join(top) + "}").encode()
    if draw(st.integers(0, 9)) == 0:
        raw = raw[: draw(st.integers(0, len(raw)))]  # truncated text
    return raw


class TestGeneratedBodies:
    @settings(max_examples=600, deadline=None)
    @given(bodies())
    def test_array_path_defers_or_matches_the_fallback(self, raw):
        assert_paths_agree(raw)

    @settings(max_examples=200, deadline=None)
    @given(orders_texts())
    def test_parse_orders_accepts_only_what_json_reads_as_that_matrix(self, orders):
        text, _ = orders
        matrix = parse_orders(text.encode())
        if matrix is None:
            return
        # json.loads raises on a leading zero or a split number and reads a
        # sign or a decimal point as such, so equality shows the matrix is
        # exactly what the text says.
        assert json.loads(text) == matrix.tolist()
        assert matrix.dtype == np.int64
