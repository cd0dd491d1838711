"""G's JSON text against the json module: the writer's bytes, the canonical
reader's values, and the reader's fallback on text that is not canonical."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

import mdssd.grs as grs
from mdssd.constructions import build
from mdssd.errors import MdssdError
from mdssd.grs import _canonical_parts, _matrix_json, artifact_from_dict, artifact_from_json

# every change of decimal width below 2^20, and the largest encoding
WIDTH_EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000,
               (1 << 20) - 1]


def _grid():
    """(name, G) over shapes with k = 1 and n = 1 among them; each G
    repeats its rows in a pattern (edges, zeros, random, reversed edges), so
    that blocks of one, two or three rows split every pair of patterns."""
    rng = np.random.default_rng(2718)
    edges = np.array(WIDTH_EDGES)
    for k, n in ((1, 1), (1, 14), (5, 1), (7, 14), (9, 30), (12, 3)):
        patterns = [np.resize(edges, n), np.zeros(n, dtype=np.int64),
                    rng.integers(0, 1 << 20, n), np.resize(edges[::-1], n),
                    rng.choice(edges, n)]
        yield f"{k}x{n}", np.array([patterns[i % len(patterns)] for i in range(k)],
                                   dtype=np.int64)
    yield "zeros", np.zeros((4, 5), dtype=np.int64)
    yield "small-q", rng.integers(0, 3, (6, 7))


GRID = dict(_grid())


def _block_sizes(n):
    """_BLOCK_ENTRIES values that give text blocks of 1, 2 and 3 rows of n
    entries, and the default."""
    return [32 * n * rows for rows in (1, 2, 3)] + [grs._BLOCK_ENTRIES]


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(GRID))
def test_writer_writes_json_dumps_bytes(name, monkeypatch):
    G = GRID[name]
    want = _dumps(G.tolist()).encode()
    for block in _block_sizes(G.shape[1]):
        monkeypatch.setattr(grs, "_BLOCK_ENTRIES", block)
        pieces = _matrix_json(G)
        assert b"".join([b"[[", *pieces, b"]]"]) == want, block
        assert len(pieces) == -(-G.shape[0] // grs._text_rows(G.shape[1]))
        # G alone: no "," after its "]]"
        assert grs.to_json({"G": G}) == json.dumps({"G": G.tolist()}, sort_keys=True,
                                                   separators=(",", ":"))


@pytest.mark.parametrize("G", [
    [[-1, 5]], [[-10_000, -10_001]], [[5, -(10**7)]], [[-(10**7) - 1, 0]], [[5, 10**7]],
    [[3, 0], [2**62, -(2**62)]],
], ids=["minus-one", "minus-ten-thousand", "minus-ten-million", "below-minus-ten-million",
        "ten-million", "beyond-int32"])
def test_to_json_refuses_arrays_with_entries_outside_the_slot_tables(G):
    with pytest.raises(IndexError):
        grs.to_json({"G": np.array(G, dtype=np.int64), "k": len(G)})


def _reads_as_json(text):
    """_canonical_parts(text) gives exactly json.loads' values."""
    doc, G = _canonical_parts(text)
    loaded = json.loads(text)
    assert doc == {key: val for key, val in loaded.items() if key != "G"}
    assert G.dtype == np.int64 and G.tolist() == loaded["G"]


@pytest.mark.parametrize("name", sorted(GRID))
def test_reader_reads_json_loads_values(name, monkeypatch):
    G = GRID[name]
    k, n = G.shape
    written = grs.to_json({"G": G, "k": k, "n": n, "x": [1]})
    # signed entries too, as a tampered copy holds them: up to 8 characters
    signed = '{"G":' + _dumps((-G).tolist()) + f',"k":{k},"n":{n}}}'
    for block in _block_sizes(n):
        monkeypatch.setattr(grs, "_BLOCK_ENTRIES", block)
        _reads_as_json(written)
        _reads_as_json(signed)


@pytest.mark.parametrize("entry", ["123456789", "-12345678", "100000000", "1" * 30])
def test_reader_sends_entries_longer_than_8_bytes_to_the_strict_path(entry):
    assert _canonical_parts('{"G":[[1,' + entry + '],[2,3]],"k":2,"n":2}') is None
    _reads_as_json('{"G":[[1,' + entry[:8] + '],[2,3]],"k":2,"n":2}')


@pytest.fixture(scope="module")
def small_text():
    art, _ = build("T1ii", 3, 2, m=2, t=2)
    return grs.to_json(grs.artifact_to_dict(art))


def _outcome(load, text):
    try:
        return load(text)
    except (MdssdError, ValueError, KeyError, TypeError, RecursionError) as ex:
        return type(ex), str(ex)


def _mutations(text, count, seed):
    """`count` seeded one-byte mutations (replace, insert or delete), most
    of them inside G's text."""
    rng = random.Random(seed)
    g_end = text.index("]],") + 3
    alphabet = '0123456789,-[] "G:{}e.'
    for _ in range(count):
        i = rng.randrange(g_end if rng.random() < 0.8 else len(text))
        op = rng.choice(("replace", "insert", "delete"))
        c = "" if op == "delete" else rng.choice(alphabet)
        yield text[:i] + c + text[i + (op != "insert"):]


@pytest.mark.parametrize("rows", [1, None], ids=["one-row-blocks", "default-blocks"])
def test_one_byte_mutations_end_as_on_the_strict_path(small_text, rows, monkeypatch):
    """A mutated text is read by the canonical reader with json.loads'
    values, or sent to the strict path; either way artifact_from_json ends
    as artifact_from_dict(json.loads(text)) does."""
    if rows:
        monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 32)
    parsed = 0
    for text in _mutations(small_text, 3000, seed=17):
        if _canonical_parts(text) is not None:
            _reads_as_json(text)
            parsed += 1
        strict = _outcome(lambda t: artifact_from_dict(json.loads(t)), text)
        assert _outcome(artifact_from_json, text) == strict, text
    assert 100 < parsed < 3000
