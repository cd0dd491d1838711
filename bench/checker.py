"""Independent certificate checker for mdssd artifacts.

Nothing here imports mdssd.  The field F_q is rebuilt from the artifact's
stored modulus (checked irreducible with sympy) and its arithmetic is done on
base-p digit arrays: an element with encoding sum(c_i p^i) is the polynomial
sum(c_i x^i) reduced modulo the stored modulus.  From that arithmetic the
checker rebuilds G = GRS(a, v, k) (plus the infinity column for extended
codes), compares it with the stored G, and checks G * G^T = 0.  Distinct
points and nonzero weights make a GRS code MDS of rank k, so together with
the comparison these checks certify an MDS self-dual code.
"""

from __future__ import annotations

import numpy as np
import sympy

EXACT_GRAM_MAX_N = 16
PROJECTIONS = 3

# Whether each construction family builds extended codes.
EXTENDED = {"T1i": False, "T1ii": True, "T2": True, "T3i": False,
            "T3ii": True, "T4": True, "T5": False}


class Field:
    """F_p[x]/(modulus) on encodings held in int64 numpy arrays."""

    def __init__(self, p: int, d: int, modulus):
        if not (isinstance(p, int) and p > 2 and sympy.isprime(p)):
            raise ValueError(f"p = {p!r} is not an odd prime")
        if not (isinstance(d, int) and d >= 1):
            raise ValueError(f"d = {d!r} is not a positive degree")
        mod = list(modulus)
        if len(mod) != d + 1 or not _ints_in(mod, 0, p) or mod[-1] != 1:
            raise ValueError(f"modulus {mod!r} is not monic of degree {d} over F_{p}")
        x = sympy.Symbol("x")
        if not sympy.Poly(list(reversed(mod)), x, modulus=p).is_irreducible:
            raise ValueError(f"modulus {mod!r} is reducible over F_{p}")
        self.p, self.d, self.q = p, d, p**d
        self.modulus = np.array(mod, dtype=np.int64)
        self.place = p ** np.arange(d, dtype=np.int64)

    def digits(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=np.int64)
        return (A[..., None] // self.place) % self.p

    def encode(self, D: np.ndarray) -> np.ndarray:
        return (D % self.p) @ self.place

    def mul(self, A, B) -> np.ndarray:
        p, d = self.p, self.d
        DA, DB = self.digits(A), self.digits(B)
        DA, DB = np.broadcast_arrays(DA, DB)
        prod = np.zeros(DA.shape[:-1] + (2 * d - 1,), dtype=np.int64)
        for i in range(d):
            prod[..., i:i + d] += DA[..., i:i + 1] * DB
        prod %= p
        for top in range(2 * d - 2, d - 1, -1):
            lead = prod[..., top:top + 1]
            prod[..., top - d:top + 1] -= lead * self.modulus
            prod %= p
        return self.encode(prod[..., :d])

    def sum(self, A, axis: int) -> np.ndarray:
        return self.encode(self.digits(A).sum(axis=axis))


def _ints_in(values, lo: int, hi: int) -> bool:
    return all(type(x) is int and lo <= x < hi for x in values)


def length_formula(cons: dict, p: int) -> int:
    """n as the theorem's formula gives it from the stored parameters."""
    th = cons["theorem"]
    if th in ("T1i", "T3i"):
        return cons["t"] * cons["m"]
    if th == "T2":
        return cons["t"] * cons["m"] + 1
    if th in ("T1ii", "T3ii"):
        return cons["t"] * cons["m"] + 2
    if th == "T4":
        return p ** (2 * cons["e"]) + 1
    return 2 * cons["t"] * p ** (cons["k_sub"] * cons["e"])


def grs_matrix(F: Field, a, v, k: int, extended: bool) -> np.ndarray:
    """Row i holds v_j a_j^i; extended codes add a column (0, ..., 0, 1)."""
    a = np.asarray(a, dtype=np.int64)
    rows = [np.asarray(v, dtype=np.int64)]
    for _ in range(k - 1):
        rows.append(F.mul(rows[-1], a))
    G = np.stack(rows)
    if extended:
        inf = np.zeros((k, 1), dtype=np.int64)
        inf[k - 1, 0] = 1
        G = np.hstack([G, inf])
    return G


def gram_row(F: Field, G: np.ndarray, i: int) -> np.ndarray:
    """Row i of G * G^T, exactly."""
    return F.sum(F.mul(G[i][None, :], G), axis=1)


def gram_is_zero(F: Field, G: np.ndarray, rng: np.random.Generator) -> bool:
    """Exact for n <= EXACT_GRAM_MAX_N.  Beyond that, G (G^T x) = 0 for
    PROJECTIONS random x; a nonzero G G^T passes one test with probability
    at most 1/q."""
    k, n = G.shape
    if n <= EXACT_GRAM_MAX_N:
        return all(not gram_row(F, G, i).any() for i in range(k))
    for _ in range(PROJECTIONS):
        x = rng.integers(0, F.q, size=k)
        y = F.sum(F.mul(G, x[:, None]), axis=0)
        if F.sum(F.mul(G, y[None, :]), axis=1).any():
            return False
    return True


def check_artifact(doc: dict, rng: np.random.Generator) -> list[str]:
    """Every reason the artifact is not a certified MDS self-dual code;
    empty when it is one."""
    try:
        p, d, q, n, k = (doc[key] for key in ("p", "d", "q", "n", "k"))
        F = Field(p, d, doc["modulus"])
        cons, a, v, G = doc["construction"], doc["a"], doc["v"], doc["G"]
    except (KeyError, TypeError, ValueError) as ex:
        return [f"malformed artifact: {ex!r}"]
    problems = []
    if q != F.q:
        problems.append(f"q = {q!r} is not p^d = {F.q}")
    th = cons.get("theorem")
    if th not in EXTENDED:
        return problems + [f"unknown construction {th!r}"]
    extended = EXTENDED[th]
    if cons.get("extended") is not extended:
        problems.append(f"{th} codes are {'extended' if extended else 'plain'}")
    try:
        formula = length_formula(cons, p)
    except (KeyError, TypeError) as ex:
        return problems + [f"construction parameters missing: {ex!r}"]
    if n != formula:
        problems.append(f"n = {n!r} but the {th} length formula gives {formula}")
    if not (type(n) is int and type(k) is int and n == 2 * k and k >= 1):
        return problems + [f"(n, k) = ({n!r}, {k!r}) is not (2k, k)"]
    if not (isinstance(a, list) and len(a) == n - extended and _ints_in(a, 0, F.q)):
        return problems + ["a is not n - extended field elements"]
    if len(set(a)) != len(a):
        problems.append("evaluation points are not distinct")
    if not (isinstance(v, list) and len(v) == len(a) and _ints_in(v, 1, F.q)):
        return problems + ["v is not len(a) nonzero field elements"]
    if not (isinstance(G, list) and len(G) == k
            and all(isinstance(row, list) and len(row) == n and _ints_in(row, 0, F.q)
                    for row in G)):
        return problems + ["G is not a k x n matrix of field elements"]
    Gn = np.array(G, dtype=np.int64)
    if not np.array_equal(Gn, grs_matrix(F, a, v, k, extended)):
        problems.append("G is not GRS(a, v, k)")
    if not gram_is_zero(F, Gn, rng):
        problems.append("G * G^T is not zero")
    return problems
