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

G's JSON text is written and read on arrays as well.  `to_json` writes an
array under "G" from its decimal digits, byte for byte as `json.dumps`
writes the lists, and `artifact_from_json` parses the writer's canonical
form of G straight into int64, signed entries included, so that a negative
entry meets the range check there; any other text goes through
`json.loads` and `artifact_from_dict`'s strict list checks, which word every
error.
"""

from __future__ import annotations

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

    def rows(exponents: np.ndarray) -> np.ndarray:
        L = exponents[:, None] * log_a
        L += log_v
        L %= ctx.q - 1
        R = exp[L]
        if zero_points.size:
            R[:, zero_points] *= exponents[:, None] == 0
        return R

    return rows


def _generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """The read-only (k, n) generator matrix: rows 0..k-1 of `grs_rows` on
    the finite points, made in row blocks of about _BLOCK_ENTRIES entries,
    and, when a is extended, a last column that is zero except for a 1 in
    row k-1 (the x^{k-1} coefficient)."""
    if len(v.weights) != len(a.points) or not 1 <= k <= a.n:
        raise DimensionMismatch(f"need len(v) = len(a.points) and 1 <= k <= n, "
                                f"got n={a.n}, len(v)={len(v.weights)}, k={k}")
    rows = grs_rows(a.ctx, np.array(a.points, dtype=np.int64),
                    np.array(v.weights, dtype=np.int64))
    G = np.zeros((k, a.n), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // a.n)
    for lo in range(0, k, step):
        G[lo:lo + step, :len(a.points)] = rows(np.arange(lo, min(lo + step, k)))
    if a.extended:
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
    """Canonical JSON: sorted keys, no whitespace.  An int64 array under "G"
    is written from its digits (`_matrix_json`), with the same bytes as its
    lists; "G" must then sort first, as it does among an artifact's keys,
    whose other keys are lowercase."""
    G = obj.get("G")
    if not isinstance(G, np.ndarray):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    rest = json.dumps({key: val for key, val in obj.items() if key != "G"},
                      sort_keys=True, separators=(",", ":"))
    return b"".join([b'{"G":[[', *_matrix_json(G), b"]],", rest[1:].encode()]).decode()


def _matrix_json(G: np.ndarray) -> list[bytes]:
    """The text of a (k, n) array of entries >= 0 between the outer "[[" and
    "]]", in pieces of whole rows.  Each entry gets a little-endian slot of
    8-byte words: its digits, right-aligned and built one decimal place per
    pass, then "," (";" after a row's last entry); NUL bytes pad the slot
    and are deleted, and ";" becomes "],[" between rows."""
    k, n = G.shape
    width = len(str(int(G.max())))
    words = (width + 8) // 8
    rows = max(1, _BLOCK_ENTRIES // n)
    pieces = []
    for lo in range(0, k, rows):
        rest = G[lo:lo + rows].ravel()
        slots = np.zeros((rest.size, words), dtype="<i8")
        slots[:, -1] = ord(",") << 56
        slots[n - 1::n, -1] = ord(";") << 56
        for place in range(width):
            byte = 8 * words - 2 - place
            high = rest // 10
            char = high * -10
            char += rest
            char += ord("0")
            if place:  # a leading zero stays NUL
                char *= rest > 0
            char <<= 8 * (byte % 8)
            slots[:, byte // 8] |= char
            rest = high
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


# G's text as `_canonical_parts` hands it to np.fromstring: digits, "-" and
# "," stay, the brackets of "],[" become spaces, which it skips around a ",",
# and every other byte becomes NUL.
_G_TEXT = bytes(c if c in b"-0123456789," else 32 if c in b"[]" else 0 for c in range(256))

# np.fromstring saturates an entry beyond int64 to this value.
_INT64_MAX = np.iinfo(np.int64).max


def _canonical_parts(text: str) -> tuple[dict, np.ndarray] | None:
    """(the other fields, G) for text in the writer's canonical form, or None.

    The form starts '{"G":[[' ("G" sorts before every lowercase key), every
    "]" of G is followed by ",[" and the last by "],".  An entry may be
    signed: a "-" must directly precede its digits, at the entry's start,
    so that a negative entry (a tampered copy) meets the range check here
    too.  The checks run cheapest first: one pass over G's text for its
    characters and the places of its signs, then the rest must parse, hold
    no second "G" and give G's row count as k and an int n, every entry
    must be a nonempty run of digits, k * n of them, and each row must hold
    n.  Only then is G parsed, and the digits of the values' magnitudes must
    add up to the digits of the text, which rules out leading zeros ("-07"
    as well as "07"; "-0" is 0); no value may be the int64 maximum, to which
    np.fromstring saturates every entry beyond int64, whatever its sign.
    Every entry is then a JSON int, so json.loads(text) gives the same
    document."""
    if not text.startswith('{"G":[[') or not text.isascii():
        return None
    row_ends = []
    end = text.find("]", 7)
    while text.startswith("],[", end):
        row_ends.append(end - 7)
        end = text.find("]", end + 3)
    if end < 0 or not text.startswith("]],", end):
        return None
    flat = text[7:end].encode().translate(_G_TEXT)
    if b"\0" in flat:
        return None
    chars = np.frombuffer(flat, dtype=np.uint8)
    digit = chars - ord("0") < 10
    # each "-" starts an entry, after a "," or a bracket's space; then no
    # entry holds two runs of digits, and with k * n runs below, each holds
    # one, after at most one "-"
    signs = np.flatnonzero(chars[1:] == ord("-"))
    if signs.size and not np.isin(chars[signs], (ord(","), ord(" "))).all():
        return None
    try:
        doc = json.loads("{" + text[end + 3:])
    except (ValueError, RecursionError):
        return None
    k, n = doc.get("k"), doc.get("n")
    if "G" in doc or type(k) is not int or type(n) is not int or k != len(row_ends) + 1:
        return None
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + np.count_nonzero(digit[:1])
    # a space is one of a "],[", each of whose "[" follows a "]"
    if runs != k * n or np.count_nonzero(chars == ord(" ")) != 2 * (k - 1):
        return None
    # the comma of each "],[" must be the last of n in its row
    commas = np.flatnonzero(chars == ord(","))
    if commas.size != k * n - 1 or not np.array_equal(commas[n - 1::n], np.add(row_ends, 1)):
        return None
    G = np.fromstring(flat, dtype=np.int64, sep=",")
    if G.size != k * n:
        return None
    top, bottom = int(G.max()), int(G.min())
    digits, power = G.size, 10
    while power <= max(top, -bottom):
        digits += np.count_nonzero(G >= power) + np.count_nonzero(G <= -power)
        power *= 10
    if top == _INT64_MAX or digits != np.count_nonzero(digit):
        return None
    return doc, G.reshape(k, n)
