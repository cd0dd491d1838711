"""GRS and extended GRS generator matrices, locator products, and the
self-dual assembly engines.

A GRS codeword is (v_1 f(a_1), ..., v_n f(a_n)) for deg f < k; the extended
variant appends the coefficient of x^{k-1} as an extra coordinate.  The
assembly engines turn an evaluation vector into a self-dual [n, n/2] code by
solving v_i^2 = 1/(lambda L(a_i)) (plain) or v_i^2 = -1/L(a_i) (extended),
where L(a_i) is the product of differences with the other points.

Assembly runs in numpy on logarithms to the base g.  The construction
families hand the assemblies the logs of their locators, which the paper's
lemmas give in closed form in O(n + t) (`constructions`).  Without them,
for any distinct points, the locators are computed by brute force
(`locator_logs`, `all_locators`), which the tests keep as the oracle of the
closed forms: for nonzero points, log(a_i - a_j) = log a_i +
zech[log a_j - log a_i + (q-1)/2], so every locator is one row sum of Zech
lookups mod q-1, n^2 in all.  A target g^l is a square
exactly when l is even, and the roots of 1/g^l are g^h and g^(h + (q-1)/2)
with h = (-l mod (q-1))/2; the weight is the smaller encoding of the two.
This log form is the one definition of the canonical root; `self_dual_weights`
gives the weights alone, without G or the list of locators.  Row i of G has
logs log v_j + i log a_j; `grs_rows` makes any set of such rows from
arrays of points and weights, for G, which is one read-only int64 array of
shape (k, n), and for the power sums of `verify`, which never hold G.

G's JSON text is written and read on arrays as well, in blocks of whole
rows (`_text_rows`).  `to_json` gathers each entry's 8-byte slot of text
from constant tables, byte for byte as `json.dumps` writes the lists, and
`artifact_from_json` parses the writer's canonical form of G straight into
int64, eight digits to a 64-bit word, signed entries included, so that a
negative entry meets the range check there; any other text goes through
`json.loads` and `artifact_from_dict`'s strict list checks, which word every
error.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field as dc_field
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    InvalidLambda,
    MalformedArtifact,
    OddLength,
    SquareConditionViolated,
)
from .field import FieldCtx, make_field


@dataclass(frozen=True)
class EvalVector:
    """Distinct evaluation points; `extended` adds the infinity coordinate."""

    ctx: FieldCtx
    points: tuple[int, ...]
    extended: bool = False

    @property
    def n(self) -> int:
        return len(self.points) + (1 if self.extended else 0)

    def is_distinct(self) -> bool:
        return len(set(self.points)) == len(self.points)


@dataclass(frozen=True)
class ScalingVector:
    """Nonzero column weights; extended codes carry an implicit final 1."""

    ctx: FieldCtx
    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w == 0 for w in self.weights):
            raise ValueError("scaling weights must be nonzero")


@dataclass(frozen=True)
class CodeArtifact:
    ctx: FieldCtx
    a: EvalVector
    v: ScalingVector
    k: int
    G: np.ndarray = dc_field(compare=False)  # (k, n) encodings
    label: str
    params: dict = dc_field(default_factory=dict, compare=False)

    def __eq__(self, other):
        # Written out because == on arrays is elementwise; the generated
        # hash leaves G out, which stays consistent with this.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ctx, self.a, self.v, self.k, self.label)
                == (other.ctx, other.a, other.v, other.k, other.label)
                and np.array_equal(self.G, other.G))

    @property
    def n(self) -> int:
        return self.a.n


# The one block size, in entries (4 MB as int64), so that no working set
# grows with n^2 or d k n.  Read at call time by the brute-force locator
# kernel, G's rows and G's JSON text here, and by the digit-plane, Gram,
# structure-test and codeword blocks of `verify`; not by its power sums,
# whose two slabs of about sqrt(2k) rows stay far below G.
_BLOCK_ENTRIES = 1 << 19


def locator_logs(ctx: FieldCtx, logs: np.ndarray) -> np.ndarray:
    """Logs of L(a_i) = prod_{j != i} (a_i - a_j) for distinct nonzero points
    a_i = g^logs[i], from an int64 array of logs: (n-1) log a_i plus the sum
    of zech[log a_j - log a_i + (q-1)/2] over j != i, mod q-1.  The term
    j = i is zech[(q-1)/2] = -1, so each full row sum is corrected by +1."""
    q1 = ctx.q - 1
    n = logs.size
    out = (n - 1) * logs + 1
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, rows):
        idx = logs[None, :] - logs[lo:lo + rows, None]
        idx += q1 // 2
        idx %= q1
        out[lo:lo + rows] += ctx.np_zech[idx].sum(axis=1, dtype=np.int64)
    out %= q1
    return out


def _log_locators(a: EvalVector) -> np.ndarray:
    """Logs of every L(a_i).  A zero point adds a factor a_i to every other
    locator, and its own locator is prod_j (-a_j)."""
    ctx = a.ctx
    q1 = ctx.q - 1
    points = np.array(a.points, dtype=np.int64)
    nonzero = points != 0
    logs = ctx.np_tables[1][points[nonzero]]
    out = np.zeros(points.size, dtype=np.int64)
    out[nonzero] = locator_logs(ctx, logs)
    if not nonzero.all():
        out[nonzero] += logs
        out[~nonzero] = logs.sum() + logs.size * (q1 // 2)
        out %= q1
    return out


def all_locators(a: EvalVector) -> list[int]:
    """Every L(a_i), for distinct points."""
    return a.ctx.np_tables[0][_log_locators(a)].tolist()


def grs_rows(ctx: FieldCtx, points: np.ndarray, weights: np.ndarray):
    """rows(exponents): for each exponent i of an int64 array, the row
    v_j a_j^i, for int64 arrays of finite points a and nonzero weights v,
    as one int64 array.  Row i has logs log v_j + i log a_j, and a zero
    point a_j holds v_j at i = 0 and zero at i > 0.  Rows 0..k-1 are those
    of the generator matrix of GRS_k(a, v); rows past k-1 serve the power
    sums of `verify`."""
    exp, log = ctx.np_tables
    log_a, log_v = log[points], log[weights]
    zero_points = (points == 0).nonzero()[0]

    def rows(exponents: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The rows, gathered into `out` (a C-contiguous int64 array of their
        shape) when given, so that G's rows are written once."""
        L = exponents[:, None] * log_a
        L += log_v
        L %= ctx.q - 1
        # np.take fills a C-contiguous out in place ("raise" would buffer
        # it; L is in range)
        R = np.take(exp, L, out=out, mode="clip")
        if zero_points.size:
            R[:, zero_points] *= exponents[:, None] == 0
        return R

    return rows


def _generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """The read-only (k, n) generator matrix: rows 0..k-1 of `grs_rows` on
    the finite points, gathered straight into G in row blocks of about
    _BLOCK_ENTRIES entries, and, when a is extended, a last column that is
    zero except for a 1 in row k-1 (the x^{k-1} coefficient).  An extended
    code's rows are gathered with a stand-in last point 1 of weight 1, so
    that each block is whole rows of G, contiguous; its column is then
    overwritten."""
    if len(v.weights) != len(a.points) or not 1 <= k <= a.n:
        raise DimensionMismatch(f"need len(v) = len(a.points) and 1 <= k <= n, "
                                f"got n={a.n}, len(v)={len(v.weights)}, k={k}")
    stand_in = [1] if a.extended else []
    rows = grs_rows(a.ctx, np.array([*a.points, *stand_in], dtype=np.int64),
                    np.array([*v.weights, *stand_in], dtype=np.int64))
    G = np.empty((k, a.n), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // a.n)
    for lo in range(0, k, step):
        rows(np.arange(lo, min(lo + step, k)), out=G[lo:lo + step])
    if a.extended:
        G[:, -1] = 0
        G[k - 1, -1] = 1
    G.flags.writeable = False
    return G


def grs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """Row i holds v_j * a_j^i, 0 <= i < k, as a read-only (k, n) array."""
    if a.extended:
        raise DimensionMismatch("use xgrs_generator_matrix for extended codes")
    return _generator_matrix(a, v, k)


def xgrs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """As grs_generator_matrix on the finite points, with a final column that
    is zero except for a 1 in row k-1 (the x^{k-1} coefficient)."""
    if not a.extended:
        raise DimensionMismatch("evaluation vector is not marked extended")
    return _generator_matrix(a, v, k)


def _square_root_weights(ctx: FieldCtx, target_logs: np.ndarray) -> tuple[int, ...]:
    """v_i = sqrt(1 / g^l_i) for target logs l_i, the smaller encoding of
    g^h and g^(h + (q-1)/2) with h = (-l_i mod (q-1)) / 2.  Raises
    SquareConditionViolated at the first odd l_i, a non-square target."""
    odd = np.flatnonzero(target_logs % 2)
    if odd.size:
        raise SquareConditionViolated(int(odd[0]))
    q1 = ctx.q - 1
    exp = ctx.np_tables[0]
    h = (-target_logs % q1) // 2
    return tuple(np.minimum(exp[h], exp[h + q1 // 2]).tolist())


def assemble_self_dual_grs(
    a: EvalVector, lam: int, label: str = "grs", params: dict | None = None,
    log_locators: np.ndarray | None = None,
) -> tuple[CodeArtifact, list[int]]:
    """Lemma-style assembly: requires lambda * L(a_i) to be a nonzero square
    at every point, then sets v_i = sqrt(1 / (lambda L(a_i))).  The logs of
    the L(a_i) may be given, as the families' closed forms give them; they
    are computed by brute force (`_log_locators`) only when they are not.

    Returns the artifact together with the locators (callers cache them in
    the construction trace)."""
    if a.extended:
        raise DimensionMismatch("plain assembly got an extended evaluation vector")
    return _assemble(a, lam, label, params, log_locators)


def assemble_self_dual_xgrs(
    a: EvalVector, label: str = "xgrs", params: dict | None = None,
    log_locators: np.ndarray | None = None,
) -> tuple[CodeArtifact, list[int]]:
    """Extended assembly: requires -L(a_i) to be a nonzero square at every
    finite point, then sets v_i = sqrt(-1 / L(a_i)); the infinity coordinate
    keeps weight 1.  The logs of the L(a_i) are optional, as above."""
    if not a.extended:
        raise DimensionMismatch("extended assembly needs the extended flag set")
    return _assemble(a, None, label, params, log_locators)


def _assemble(a: EvalVector, lam: int | None, label: str, params: dict | None,
              log_locators: np.ndarray | None) -> tuple[CodeArtifact, list[int]]:
    """The body of both assemblies; lam is None for the extended code."""
    _require_assemblable(a, lam)
    if log_locators is None:
        log_locators = _log_locators(a)
    v = ScalingVector(a.ctx, _weights(a, lam, log_locators))
    k = a.n // 2
    G = (xgrs_generator_matrix if a.extended else grs_generator_matrix)(a, v, k)
    locs = a.ctx.np_tables[0][log_locators].tolist()
    return CodeArtifact(a.ctx, a, v, k, G, label, params or {}), locs


def self_dual_weights(a: EvalVector, lam: int | None,
                      log_locators: np.ndarray | None = None) -> tuple[int, ...]:
    """The weights v of the assemblies (lam is None for the extended code),
    without G or the list of locators: the locators stay logs, given or
    computed by brute force as in the assemblies."""
    _require_assemblable(a, lam)
    return _weights(a, lam, _log_locators(a) if log_locators is None else log_locators)


def _require_assemblable(a: EvalVector, lam: int | None) -> None:
    if a.n % 2 != 0:
        raise OddLength(a.n)
    if not a.extended and not (isinstance(lam, (int, np.integer)) and 0 < lam < a.ctx.q):
        raise InvalidLambda(lam, a.ctx.q)
    if not a.is_distinct():
        raise DuplicatePoint()


def _weights(a: EvalVector, lam: int | None, log_locs: np.ndarray) -> tuple[int, ...]:
    """v_i = sqrt(1 / (lam L(a_i))), or, for the extended code, whose
    targets are -L(a_i) = g^(log L(a_i) + (q-1)/2), v_i = sqrt(-1 / L(a_i)),
    from the logs of the locators."""
    ctx = a.ctx
    shift = (ctx.q - 1) // 2 if a.extended else ctx.np_tables[1][lam]
    return _square_root_weights(ctx, log_locs + shift)


# --- JSON artifact form (bit-exact across platforms) ---

def artifact_record(art: CodeArtifact, trace_dict: dict | None = None,
                    verification: dict | None = None) -> dict:
    """The artifact's JSON fields, with G as the read-only int64 array, which
    `to_json` writes from its digits."""
    out = {
        "q": art.ctx.q,
        "p": art.ctx.p,
        "d": art.ctx.d,
        "modulus": list(art.ctx.modulus),
        "n": art.n,
        "k": art.k,
        "construction": {"label": art.label, "extended": art.a.extended, **art.params},
        "a": list(art.a.points),
        "v": list(art.v.weights),
        "G": art.G,
    }
    if trace_dict is not None:
        out["trace"] = trace_dict
    if verification is not None:
        out["verification"] = verification
    return out


def artifact_to_dict(art: CodeArtifact, trace_dict: dict | None = None,
                     verification: dict | None = None) -> dict:
    """As artifact_record, with G as k lists of n ints."""
    return {**artifact_record(art, trace_dict, verification), "G": art.G.tolist()}


def to_json(obj: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, returned as one str.  An
    integer array under "G", whose entries must be in [0, 10^7) as every
    encoding is (q <= 2^20), is written by `_matrix_json` with the same
    bytes as its lists; IndexError for any other entry.  "G" must sort
    first, as it does among an artifact's keys, whose other keys are
    lowercase."""
    G = obj.get("G")
    if not isinstance(G, np.ndarray):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    rest = json.dumps({key: val for key, val in obj.items() if key != "G"},
                      sort_keys=True, separators=(",", ":"))
    tail = "," + rest[1:] if len(obj) > 1 else "}"
    return b"".join([b'{"G":[[', *_matrix_json(G), b"]]", tail.encode()]).decode()


def _text_rows(n: int) -> int:
    """Rows of G per block of its text, both ways: about _BLOCK_ENTRIES / 32
    entries, so that each int64 temporary of a block (128 KB) comes back
    from the heap still mapped and in cache.  Blocks of _BLOCK_ENTRIES
    fault in fresh pages for every temporary of every block, and all of G
    at once is slower still."""
    return max(1, _BLOCK_ENTRIES // 32 // n)


@functools.cache
def _slot_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's tables (LOW, HIGH, SHIFT), independent of q and made on
    first use, so that a process that writes no G holds none of them.  An
    entry v < 10^7 is hi * 10^4 + lo, and its little-endian 8-byte slot is
    LOW[v - SHIFT[hi]] | HIGH[hi]: bytes 0-2 hold hi's digits (none for
    hi = 0), bytes 3-6 lo's four digits, and byte 7 a ",".  LOW's first
    10^4 slots (hi = 0) pad lo with NUL bytes, keeping 0's own "0"; its
    last 10^4 (hi > 0, where SHIFT[hi] = 10^4 (hi - 1)) pad it with "0"."""
    lo = np.arange(10_000, dtype=np.uint16)
    low = np.zeros((2, 10_000, 8), dtype=np.uint8)
    for byte, place in enumerate((1000, 100, 10, 1), start=3):
        low[:, :, byte] = lo // place % 10 + ord("0")
        if place > 1:
            low[0, :, byte] *= lo >= place
    low[:, :, 7] = ord(",")
    high = np.zeros((1000, 8), dtype=np.uint8)
    high[1:, :3] = low[0, 1:1000, 4:7]
    shift = 10_000 * np.maximum(np.arange(1000) - 1, 0)
    tables = low.view("<u8").ravel(), high.view("<u8").ravel(), shift
    for table in tables:
        table.flags.writeable = False
    return tables


def _matrix_json(G: np.ndarray) -> list[bytes]:
    """The text of a (k, n) array of entries in [0, 10^7) between the outer
    "[[" and "]]", in pieces of whole rows (`_text_rows`); IndexError for
    an entry outside that range, whose index v - SHIFT[hi] or hi falls
    outside LOW or SHIFT, negative entries too.  Each entry's 8-byte slot
    is gathered whole from `_slot_tables`, a row's last "," becomes ";",
    the NUL bytes are deleted, and ";" becomes "],[" between rows."""
    k, n = G.shape
    rows = _text_rows(n)
    low, high, shift = _slot_tables()
    pieces = []
    for lo in range(0, k, rows):
        v = G[lo:lo + rows].ravel()
        hi = v // 10_000
        slots = low[v - shift[hi]]
        slots |= high[hi]
        slots[n - 1::n] ^= (ord(",") ^ ord(";")) << 56
        pieces.append(slots.tobytes().translate(None, b"\0").replace(b";", b"],["))
    pieces[-1] = pieces[-1][:-3]
    return pieces


def _shown(value) -> str:
    """repr(value), or, where that needs an int beyond the interpreter's
    limit on decimal conversion, the int's sign and bit length, or the type
    that holds it."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to show"


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise MalformedArtifact(f"{key} must be a positive integer, got {_shown(value)}")
    return value


def _encodings(values, q: int, length: int, what: str) -> tuple[int, ...]:
    """A list of exactly `length` ints (bools excluded) in [0, q)."""
    if not isinstance(values, list) or len(values) != length:
        raise MalformedArtifact(f"{what} must be a list of {length} entries")
    if not set(map(type, values)) <= {int}:
        raise MalformedArtifact(f"{what} has an entry that is not an integer")
    if values and (min(values) < 0 or max(values) >= q):
        raise MalformedArtifact(f"{what} has an entry outside [0, {q})")
    return tuple(values)


def _matrix(rows, q: int, k: int, n: int) -> np.ndarray:
    """G as a (k, n) int64 array, from a list of k lists of n ints (bools
    excluded).  The entries are checked by one type pass over all of them;
    an error names the first offending row.  An entry beyond int64 is
    clamped to -1 or q, so that it stays out of range."""
    if not isinstance(rows, list) or len(rows) != k:
        raise MalformedArtifact(f"G must be a list of k = {k} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedArtifact(f"G row {i} must be a list of {n} entries")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        i = next(i for i, row in enumerate(rows) if not set(map(type, row)) <= {int})
        raise MalformedArtifact(f"G row {i} has an entry that is not an integer")
    try:
        return np.array(rows, dtype=np.int64).reshape(k, n)
    except OverflowError:
        return np.array([[min(max(x, -1), q) for x in row] for row in rows],
                        dtype=np.int64).reshape(k, n)


def _field_matrix(G: np.ndarray, q: int) -> np.ndarray:
    """G, read-only, once every entry is in [0, q); an error names the first
    offending row."""
    if G.size and (G.min() < 0 or G.max() >= q):
        i = int(((G < 0) | (G >= q)).any(axis=1).argmax())
        raise MalformedArtifact(f"G row {i} has an entry outside [0, {q})")
    G.flags.writeable = False
    return G


def artifact_from_dict(doc: dict) -> CodeArtifact:
    """Strict inverse of artifact_to_dict: the document must be an object
    with every key but "construction", q must be p^d, the modulus must be
    the deterministic one, written in ints, every field element
    must be an encoding in [0, q), the points must be distinct, the weights
    nonzero, and the shapes must agree with n, k and the extended flag.  G
    may also be a (k, n) int64 array, as `artifact_from_json` parses it."""
    if not isinstance(doc, dict):
        raise MalformedArtifact(f"an artifact must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("q", "p", "d", "modulus", "n", "k", "a", "v", "G") if key not in doc]
    if missing:
        raise MalformedArtifact(f"required keys missing: {', '.join(missing)}")
    p, d, n, k = (_int_field(doc, key) for key in ("p", "d", "n", "k"))
    ctx = make_field(p, d)  # before p^d: an oversized d meets the field budget
    if type(doc["q"]) is not int or doc["q"] != ctx.q:
        raise MalformedArtifact(f"q must be p^d = {ctx.q}, got {_shown(doc['q'])}")
    if list(ctx.modulus) != doc["modulus"] or set(map(type, doc["modulus"])) != {int}:
        raise MalformedArtifact("stored modulus does not match the deterministic modulus")
    cons = doc.get("construction", {})
    if not isinstance(cons, dict):
        raise MalformedArtifact("construction must be an object")
    extended = cons.get("extended", False)
    if not isinstance(extended, bool):
        raise MalformedArtifact(f"extended must be a boolean, got {_shown(extended)}")
    q = ctx.q
    points = _encodings(doc["a"], q, n - extended, f"a (n = {n}, extended = {extended})")
    a = EvalVector(ctx, points, extended)
    if not a.is_distinct():
        raise MalformedArtifact("a has a repeated point")
    weights = _encodings(doc["v"], q, len(points), "v (len(a) entries)")
    if 0 in weights:
        raise MalformedArtifact(f"v has a zero entry, at index {weights.index(0)}")
    v = ScalingVector(ctx, weights)
    G = doc["G"]
    if not isinstance(G, np.ndarray):
        G = _matrix(G, q, k, n)
    elif G.dtype != np.int64 or G.shape != (k, n):
        raise MalformedArtifact(f"G must be a ({k}, {n}) int64 array")
    G = _field_matrix(G, q)
    params = {key: val for key, val in cons.items() if key not in ("label", "extended")}
    return CodeArtifact(ctx, a, v, k, G, cons.get("label", "unknown"), params)


def artifact_from_json(text: str) -> CodeArtifact:
    """artifact_from_dict(json.loads(text)), with the writer's canonical G
    parsed straight into int64 when `_canonical_parts` accepts the text."""
    parts = _canonical_parts(text)
    if parts is None:
        return artifact_from_dict(json.loads(text))
    doc, G = parts
    return artifact_from_dict({**doc, "G": G})


def _canonical_parts(text: str) -> tuple[dict, np.ndarray] | None:
    """(the other fields, G) for text in the writer's canonical form, or None.

    The form starts '{"G":[[' ("G" sorts before every lowercase key), every
    "]" of G is followed by ",[" and the last by "],".  The rest must parse,
    hold no second "G" and give G's row count as k and an int n >= 1, and
    G's text must be long enough for k * n entries and their k * n - 1
    commas (2kn - 1 bytes), before G is allocated.  Then
    `_read_rows` parses G in blocks of whole rows (`_text_rows`) and
    accounts for every byte: each is a digit of some entry, a "-" that opens
    one, a comma, or a bracket of a "],[".  An entry is at most 8 bytes,
    its optional "-" and then digits without a leading zero ("-0" is 0,
    "-07" and "07" are not canonical), so every entry is a JSON int and
    json.loads(text) gives the same document.  A negative entry (a tampered
    copy) meets the range check here too; a longer entry, which no
    encoding below 2^20 needs, sends the text to the strict path."""
    if not text.startswith('{"G":[[') or not text.isascii():
        return None
    row_ends = []
    end = text.find("]", 7)
    while text.startswith("],[", end):
        row_ends.append(end)
        end = text.find("]", end + 3)
    if end < 0 or not text.startswith("]],", end):
        return None
    try:
        doc = json.loads("{" + text[end + 3:])
    except (ValueError, RecursionError):
        return None
    k, n = doc.get("k"), doc.get("n")
    if ("G" in doc or type(k) is not int or type(n) is not int or k != len(row_ends) + 1
            or not 1 <= n <= (end - 6) // (2 * k)):
        return None
    row_ends.append(end)
    G = np.empty((k, n), dtype=np.int64)
    rows = _text_rows(n)
    for lo in range(0, k, rows):
        start = row_ends[lo - 1] + 3 if lo else 7
        if not _read_rows(text, start, row_ends[lo:lo + rows], G[lo:lo + rows].reshape(-1)):
            return None
    return doc, G


# SWAR digits (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
# VLDB J. 28, 2019).  The 8-byte word that ends at an entry's last byte,
# XOR "0" in every byte and masked to its m digits (_DIGIT_MASKS[m]), holds
# digit values, each at most 9 exactly when adding 0x76 to it leaves its top
# bit clear; three multiply-shift steps then sum them with their place
# values.  An m-digit value below _LEAST_VALUES[m] has a leading zero.
_ZEROS = 0x3030303030303030
_DIGIT_MASKS = np.array([0, *((1 << 64) - (1 << 8 * (8 - m)) for m in range(1, 9))],
                        dtype=np.uint64)
_LEAST_VALUES = np.array([0, 0, *(10 ** (m - 1) for m in range(2, 9))], dtype=np.uint64)


def _read_rows(text: str, start: int, ends: list[int], out: np.ndarray) -> bool:
    """Parses the canonical text of whole rows of G, text[start:ends[-1]],
    whose rows end at the "]" positions `ends`, into out (len(ends) * n
    int64 entries).  False unless that text is exactly n entries a row, each
    of at most 8 bytes, "-" only at an entry's start and digits after it,
    without a leading zero."""
    n = out.size // len(ends)
    size = ends[-1] - start
    # 7 bytes before the block, so that every byte of it ends an 8-byte word
    buf = text[start - 7:ends[-1]].encode()
    chars = np.frombuffer(buf, dtype=np.uint8, offset=7)
    commas = np.flatnonzero(chars == ord(","))
    if commas.size != out.size - 1 or not np.array_equal(
            commas[n - 1::n], np.subtract(ends[:-1], start - 1)):
        return False
    # an entry ends before its comma, or before the "]" of a "],[" or of the
    # block's end, and starts after the previous comma, or after a "["
    last = np.empty(out.size, dtype=np.int64)
    last[:-1] = commas
    last[-1] = size
    last[n - 1:-1:n] -= 1
    last -= 1
    length = np.empty_like(last)
    length[0] = last[0] + 1
    np.subtract(last[1:], commas, out=length[1:])
    length[n::n] -= 1
    if length.min() < 1 or length.max() > 8:
        return False
    signed = None
    if buf.find(b"-", 7) >= 0:
        # an entry with a "-" takes its first byte as its sign, so that any
        # "-" elsewhere is one of its digits, which the digit test refuses
        signed = np.searchsorted(last, np.flatnonzero(chars == ord("-")))
        length[signed] -= 1
        if length.min() < 1:
            return False
    x = np.ndarray((size,), dtype="<u8", buffer=buf, strides=(1,))[last]
    x ^= _ZEROS
    x &= _DIGIT_MASKS[length]
    if np.bitwise_or.reduce(x + 0x7676767676767676) & 0x8080808080808080:
        return False
    x *= 10 * (1 << 8) + 1
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 100 * (1 << 16) + 1
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 10_000 * (1 << 32) + 1
    x >>= 32
    if (x < _LEAST_VALUES[length]).any():
        return False
    out[:] = x.view(np.int64)
    if signed is not None:
        out[signed] *= -1
    return True
