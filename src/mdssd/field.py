"""Exact arithmetic in F_{p^d} for odd p, with the roots of unity and subfields
that the code constructions depend on.  Square roots are taken on logs, in
`grs._square_root_weights`.

Elements are canonically encoded as integers value(x) = sum(coeffs[i] * p^i)
with coefficients constant-term first.  Fields small enough to materialize
carry full exp/log tables for the multiplicative group, making mul/pow O(1).
Addition is written once, as the Zech table zech[i] = log(1 + g^i):
g^a + g^b = g^(a + zech[b - a]), where zech[(q-1)/2] = -1 marks
1 + g^((q-1)/2) = 0, and a - b adds -b = g^(log b + (q-1)/2).  Scalar
methods index read-only memoryviews of the tables, which give Python ints
without a copy; vectorized code gathers from the same arrays.

Set-up runs in a few numpy passes.  The modulus search runs Ben-Or's test
on the candidate polynomials in ascending order; of degree at most 3 its one
step is the root test.  The primitive-element search raises
stacks of multiplication matrices over F_p, with the squarings shared by the
primes of q-1.  The exp table is filled by doubling: once g^0..g^{L-1} are
known, the next L entries are g^L times them.  Multiplication by a fixed
element is F_p-linear, so each step multiplies a block of the base-p digit
table, kept as small integers throughout, by the d x d matrix of g^L, and
squares that matrix for the next step; the digits are encoded once at the
end.  The log table is the inverse permutation, filled by one scatter.
Adding 1 changes only the constant digit, so the Zech table is the log
table with each run of p entries rotated by one, gathered at exp.
`log_muladd` folds the Zech lookup, zero handling and reduction of
A <- A + F (x) R on int32 logs into two gathers from tables built on first
use.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import sympy

from .errors import (
    DegreeZero,
    EvenCharacteristic,
    FieldTooLarge,
    NonPrime,
    NotASubfield,
    NotDividing,
    ZeroToNegativePower,
)

# Largest q for which exp/log tables are built.  Larger parameter sets are
# handled by validation-only integer arithmetic and never construct a field.
TABLE_BUDGET = 1 << 20

# Columns of the digit table multiplied per BLAS call while doubling; bounds
# the float64 temporaries independently of q.
_TABLE_CHUNK = 4096

# Primitive-element candidates tested per numpy call.
_CANDIDATES = 16


# --- dense polynomial arithmetic over F_p (coefficient lists, constant first) ---

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or: monic f of degree d is irreducible over F_p iff
    gcd(x^(p^i) - x, f) = 1 for 1 <= i <= d/2.  A reducible f with a factor
    of small degree fails at a small i."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _ppowmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(f[:], _ptrim(diff), p)) > 1:
            return False
    return True


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible polynomial of degree d over F_p:
    the first candidate, in ascending order of encoding, that passes
    `_is_irreducible`.  For d <= 3 that test takes one step,
    gcd(x^p - x, f) = 1, which holds exactly when f has no root in F_p."""
    if d == 1:
        return (0, 1)  # x itself; reduction mod x plays no role for d=1
    for low in range(p**d):
        f = [low // p**i % p for i in range(d)] + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _mul_matrices(values: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """(n, d, d) float64 matrices over F_p of multiplication by n encodings
    c: sum_i c_i X_i, with c_i the base-p digits of c and X_i = basis[i]
    that of x^i."""
    d = len(basis)
    digits = values[:, None] // np.array([p**i for i in range(d)], dtype=np.int64) % p
    return (digits @ basis.reshape(d, d * d) % p).reshape(-1, d, d).astype(np.float64)


def _power_matrices(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """(d, d, d) int64 stack of the matrices over F_p of multiplication by
    x^i, i < d, acting on digit column vectors: column j of the i-th holds
    the digits of x^(i+j)."""
    d = len(modulus) - 1
    x = np.zeros((d, d), dtype=np.int64)
    x[1:, :-1] = np.eye(d - 1, dtype=np.int64)
    x[:, -1] = [-c % p for c in modulus[:-1]]  # x * x^(d-1) = x^d mod the modulus
    mats = [np.eye(d, dtype=np.int64)]
    for _ in range(d - 1):
        mats.append(x @ mats[-1] % p)
    return np.stack(mats)


def _mat_pow(mats: np.ndarray, e: int, p: int) -> np.ndarray:
    """mats^e over F_p for a stack of float64 matrices and e >= 1."""
    power = None
    while True:
        if e & 1:
            power = mats if power is None else _reduce(power @ mats, p)
        e >>= 1
        if not e:
            return power
        mats = _reduce(mats @ mats, p)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float64 array of integers in [0, 2^52).  The
    floor of x / p is exact: the division is correctly rounded, so a
    multiple of p gives its integer quotient, and otherwise the quotient
    k + r/p, 0 < r < p, lies at least 1/p below k + 1 while its rounding
    error is below 2^-53 * 2^52 / p."""
    t = x / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _poly_text(terms) -> str:
    """The nonzero (i, c) terms as c, x or cx, x^i or cx^i, joined by '+'."""
    text = [str(c) if i == 0 else ("" if c == 1 else str(c)) + ("x" if i == 1 else f"x^{i}")
            for i, c in terms if c]
    return "+".join(text) or "0"


class FieldCtx:
    """Immutable description of F_q = F_p[x]/(modulus) with a fixed primitive
    element g and full exp/log tables, as read-only int64 arrays
    (`np_tables`), plus the read-only int32 Zech table `np_zech` and the
    fused log update `log_muladd`, with zero's log `log_zero`.  Each table is
    held once; the scalar methods read it through a read-only memoryview.
    Safe to share across threads: two threads may both build the tables of
    `log_muladd`, which are made on first use, with the same result."""

    def __init__(self, p: int, d: int):
        if d < 1:
            raise DegreeZero()
        if p == 2:
            raise EvenCharacteristic()
        if not sympy.isprime(p):
            raise NonPrime(p)
        # p >= 3, so a degree beyond the budget's bit length is over budget
        # and p^d need not be computed
        if d > TABLE_BUDGET.bit_length() or p**d > TABLE_BUDGET:
            raise FieldTooLarge(p, d, TABLE_BUDGET)
        q = p**d
        self.p = p
        self.d = d
        self.q = q
        # digit products summed over d terms stay exact in float64
        assert d * (p - 1) ** 2 < 1 << 52
        self.modulus = _find_modulus(p, d)
        self.q1_factors = tuple(sorted(sympy.factorint(q - 1)))
        self._build_tables()

    # -- construction helpers --

    def _primitive_element(self, basis: np.ndarray) -> int:
        """Smallest encoding whose order is exactly q-1.  For d >= 2 the
        encodings below p are constants, of order dividing p-1 < q-1.
        Candidates are tested _CANDIDATES at a time: c is primitive iff no
        power (q-1)/l, for the primes l | q-1, of its multiplication matrix
        is the identity.  The primes share their squarings: the (C, d, d)
        stack is raised to (q-1)/rad(q-1) once, and that to rad/l for each
        l."""
        p, d, q = self.p, self.d, self.q
        identity = np.eye(d)
        rad = math.prod(self.q1_factors)
        for lo in range(2 if d == 1 else p, q, _CANDIDATES):
            cands = np.arange(lo, min(lo + _CANDIDATES, q), dtype=np.int64)
            base = _mat_pow(_mul_matrices(cands, basis, p), (q - 1) // rad, p)
            primitive = np.ones(cands.size, dtype=bool)
            for ell in self.q1_factors:
                primitive &= (_mat_pow(base, rad // ell, p) != identity).any(axis=(1, 2))
            if primitive.any():
                return int(cands[primitive.argmax()])
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self) -> None:
        q1 = self.q - 1
        basis = _power_matrices(self.modulus, self.p)
        g_val = self.g_val = self._primitive_element(basis)
        exp = self._exp_table(g_val, basis)
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(q1, dtype=np.int64)
        zech = self._zech_table(exp, log)
        for table in (exp, log, zech):
            table.flags.writeable = False
        self.np_tables = (exp, log)
        self.np_zech = zech
        self.log_zero = 5 * q1
        # indexing a memoryview gives a Python int, faster than ndarray.item
        self._exp, self._log, self._zech = map(memoryview, (exp, log, zech))

    def _exp_table(self, g_val: int, basis: np.ndarray) -> np.ndarray:
        """exp[i] = g^i for 0 <= i < q-1, by doubling: exp[L:2L] = g^L exp[0:L].
        Multiplication by g^L is F_p-linear, so each step multiplies a block
        of the (d, q-1) base-p digit table by the d x d matrix M_L of g^L over
        F_p, and M_2L = M_L^2.  The products run in float64, exact below
        2^52.  The digits stay small integers through the doubling and are
        encoded once at the end."""
        p, d, q1 = self.p, self.d, self.q - 1
        digits = np.zeros((d, q1), dtype=np.min_scalar_type(p - 1))
        digits[0, 0] = 1
        mat = _mul_matrices(np.array([g_val]), basis, p)[0]
        step = 1
        while step < q1:
            count = min(step, q1 - step)
            for lo in range(0, count, _TABLE_CHUNK):
                hi = min(lo + _TABLE_CHUNK, count)
                block = mat @ digits[:, lo:hi].astype(np.float64)
                digits[:, step + lo:step + hi] = _reduce(block, p)
            step *= 2
            mat = _reduce(mat @ mat, p)
        exp = np.zeros(q1, dtype=np.int64)
        for row in digits[::-1]:
            exp *= p
            exp += row
        return exp

    def _zech_table(self, exp: np.ndarray, log: np.ndarray) -> np.ndarray:
        """zech[i] = log(1 + g^i) as int32, with -1 at i = (q-1)/2, where
        1 + g^i = 0.  Adding 1 changes only the constant digit, which steps
        up by one or wraps from p-1 to 0, so log(1 + v) over all encodings v
        is the log table with each run of p entries rotated by one."""
        p = self.p
        runs = log.reshape(-1, p)
        log_one_plus = np.empty(runs.shape, dtype=np.int32)
        log_one_plus[:, :-1] = runs[:, 1:]
        log_one_plus[:, -1] = runs[:, 0]
        zech = log_one_plus.reshape(-1).take(exp)
        zech[(self.q - 1) // 2] = -1
        return zech

    @functools.cached_property
    def _muladd_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only int32 tables (ext, norm) of `log_muladd`, built on
        first use; see there for their index ranges."""
        q1, zero = self.q - 1, self.log_zero
        ext = np.zeros(9 * q1 + 1, dtype=np.int32)
        ext[:3 * q1] = np.arange(-zero, 3 * q1 - zero, dtype=np.int32)
        ext[4 * q1:8 * q1] = np.tile(np.where(self.np_zech < 0, 3 * q1, self.np_zech), 4)
        ext[4 * q1] = 0
        norm = np.concatenate((np.tile(np.arange(q1, dtype=np.int32), 3),
                               np.full(2 * q1 + 1, zero, dtype=np.int32)))
        for table in (ext, norm):
            table.flags.writeable = False
        return ext, norm

    def log_muladd(self, A: np.ndarray, F: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Logs of A + F (x) R, i.e. a_ij + f_i r_j, for int32 log arrays A
        (..., m, n), F (..., m) and R (..., n); leading axes are batch axes.
        Zero's log is the sentinel Z = `log_zero` = 5(q-1).  A and R hold
        reduced logs in [0, q-1) or Z; F may hold any log in [0, 2(q-1)),
        and any value in [4(q-1), 6(q-1)) for zero.  The result is reduced.

        With q1 = q-1, T = min(F + R, 4 q1) is a product's log in
        [0, 3 q1 - 1), or 4 q1 when it is zero.  Then i = T - A + Z falls
        into one of four disjoint ranges of the table ext:
          [0, 3 q1)        A zero:          ext = i - Z, so A + ext = T;
          4 q1             both zero:       ext = 0;
          (4 q1, 8 q1)     both nonzero:    ext = zech[(T - A) mod q1], as
                           a + t = a (1 + t/a), or 3 q1 where t = -a;
          (8 q1, 9 q1]     zero product:    ext = 0.
        The table norm maps A + ext to the result: i mod q1 below 3 q1, and
        Z from there up to Z itself, which takes the cancelled sums."""
        ext, norm = self._muladd_tables
        zero = self.log_zero
        T = (F + zero)[..., :, None] + R[..., None, :]
        np.minimum(T, zero + 4 * (self.q - 1), out=T)
        T -= A
        # take gathers with int32 indices about twice as fast as T = ext[T]
        T = ext.take(T)
        T += A
        return norm.take(T)

    # -- raw arithmetic on canonical encodings (hot paths use these) --

    def add_v(self, a: int, b: int) -> int:
        return a if b == 0 else self._add_power(a, self._log[b])

    def sub_v(self, a: int, b: int) -> int:
        # -b = g^(log b + (q-1)/2)
        return a if b == 0 else self._add_power(a, self._log[b] + (self.q - 1) // 2)

    def _add_power(self, a: int, e: int) -> int:
        """a + g^e for an encoding a = g^la: g^(la + zech[e - la]), or 0
        where zech is -1."""
        q1 = self.q - 1
        if a == 0:
            return self._exp[e % q1]
        la = self._log[a]
        z = self._zech[(e - la) % q1]
        return 0 if z < 0 else self._exp[(la + z) % q1]

    def mul_v(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def pow_v(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroToNegativePower()
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- roots of unity and subfields --

    def root_of_unity_v(self, m: int) -> int:
        if m < 1 or (self.q - 1) % m != 0:
            raise NotDividing(m, self.q - 1)
        return self.pow_v(self.g_val, (self.q - 1) // m)

    def subfield_generator_v(self, sub_q: int) -> int:
        for e in range(1, self.d + 1):
            if self.p**e == sub_q and self.d % e == 0:
                return self.pow_v(self.g_val, (self.q - 1) // (sub_q - 1))
        raise NotASubfield(sub_q, self.q)

    def subfield_elements_v(self, sub_q: int) -> list[int]:
        """All encodings of the subfield with sub_q elements, ascending: 0
        and the powers of its generator, every (q-1)/(sub_q-1)-th exp entry."""
        self.subfield_generator_v(sub_q)  # raises NotASubfield
        return sorted([0, *self.np_tables[0][::(self.q - 1) // (sub_q - 1)].tolist()])

    # -- formatting --

    def format_v(self, value: int) -> str:
        """Text form of an element, e.g. encoding 4 in F_9 -> '1+x'."""
        return _poly_text(enumerate(value // self.p**i % self.p for i in range(self.d)))

    def modulus_str(self) -> str:
        """The modulus, highest degree first, e.g. 'x^2+1' for F_9."""
        return _poly_text(reversed(list(enumerate(self.modulus))))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, d={self.d}, q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash((self.p, self.d))


def odd_prime_power(q: int) -> tuple[int, int] | None:
    """(p, d) with q = p^d for an odd prime p, or None.  A prime power is
    recognized by its largest perfect-power root, so a composite q is never
    factored."""
    if q < 3 or q % 2 == 0:
        return None
    if sympy.isprime(q):
        return q, 1
    root = sympy.perfect_power(q)
    return root if root and sympy.isprime(root[0]) else None


@functools.lru_cache(maxsize=None)
def make_field(p: int, d: int) -> FieldCtx:
    """Deterministic field context: value-smallest irreducible modulus and
    value-smallest primitive element.  Idempotent and cached."""
    return FieldCtx(p, d)

