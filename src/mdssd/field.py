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

Set-up runs in a few numpy passes and reads the structure of F_q*: with
m = (q-1)/(p-1), the norm N(c) = c^m of every c lies in F_p, and the norm
omega of a primitive g generates F_p*.  The modulus search takes the
candidate polynomials in ascending order, in blocks of p that differ only
in the constant term, and evaluates each block at the p points at once;
for d <= 3 the first root-free candidate is irreducible, and for d >= 4
only root-free candidates go on to Ben-Or's test.  The primitive-element
search raises stacks of multiplication matrices over F_p: a prime l of
p-1 is tested on the norm, a scalar, and any other prime l of q-1 on
whether c^(m/l) is a constant.  The first m entries of the exp table, all
of them for d = 1, come from doubling: once g^0..g^{L-1} are known, the
next L are g^L times them, one d x d matrix over F_p applied to a block of
the base-p digit table per step.  The rest are
exp[j m + i] = omega^j exp[i], and multiplying by a constant of F_p
scales each digit mod p with no carry, so they are gathered from scale
tables built from the powers of omega, at the low and the high half of
each entry's digits.  The log table is the inverse permutation, filled by
one scatter.  Adding 1 changes only the constant digit, so the Zech table
is the log table with each run of p entries rotated by one, gathered at
exp.  `log_muladd` folds the Zech lookup, zero handling and reduction of
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

# Values of the modulus search's root test per numpy call: blocks of p
# candidates, one block per call once p exceeds it.
_ROOT_TEST_VALUES = 64

# Entries of the exp table filled per pair of gathers from the scale tables.
_SCALE_BLOCK = 1 << 16


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
    `_is_irreducible`.  That test's first step, gcd(x^p - x, f) = 1, holds
    exactly when f has no root in F_p, and for d <= 3 it is the whole test.
    The candidates run in blocks of p that share all coefficients but the
    constant c_0: f = c_0 + r has a root iff -c_0 is a value of r on F_p,
    so one evaluation of r at the p points marks every c_0 of the block
    that has a root.  Blocks are evaluated about `_ROOT_TEST_VALUES`
    values at a time, and only the root-free candidates of degree d >= 4
    go on to the rest of the test."""
    if d == 1:
        return (0, 1)  # x itself; reduction mod x plays no role for d=1
    # row i holds a^i mod p at the points a; a^d < p^d = q stays in int64
    powers = np.arange(p) ** np.arange(d + 1)[:, None] % p
    place = p ** np.arange(d - 1)
    batch = max(1, _ROOT_TEST_VALUES // p)
    for start in range(0, p ** (d - 1), batch):
        highs = np.arange(start, min(start + batch, p ** (d - 1)))
        coeffs = highs[:, None] // place % p  # c_1 .. c_{d-1} of each block
        roots = -(coeffs @ powers[1:d] + powers[d]) % p  # the c_0 with a root at a
        has_root = np.zeros((len(highs), p), dtype=bool)
        has_root[np.arange(len(highs))[:, None], roots] = True
        for block, c0 in zip(*np.nonzero(~has_root)):
            f = [int(c0), *coeffs[block].tolist(), 1]
            if d <= 3 or _is_irreducible(f, p):
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


def _doubling(mat: np.ndarray, weights: np.ndarray, count: int, p: int) -> np.ndarray:
    """(k, count) int32 array whose column i is weights @ (the base-p digits
    of g^i), for the multiplication matrix mat of g over F_p and a (k, d)
    float64 weights matrix of encodings.  Filled by doubling: once
    g^0..g^{L-1} are known, the next L are g^L times them, the (d, L)
    digit table multiplied by the matrix of g^L, which squares for the next
    step.  The products run in float64 and are reduced by `_reduce`.  The
    digits stay small integers, kept only for the columns a later step
    reads."""
    d = len(mat)
    codes = np.empty((len(weights), count), dtype=np.int32)
    codes[:, 0] = weights[:, 0]
    digits = np.zeros((d, 1 << (count - 1).bit_length() - 1), dtype=np.min_scalar_type(p - 1))
    digits[0, 0] = 1
    step = 1
    while step < count:
        for lo in range(0, min(step, count - step), _TABLE_CHUNK):
            hi = min(lo + _TABLE_CHUNK, step, count - step)
            block = _reduce(mat @ digits[:, lo:hi].astype(np.float64), p)
            codes[:, step + lo:step + hi] = weights @ block
            if 2 * step < count:
                digits[:, step + lo:step + hi] = block
        step *= 2
        if step < count:
            mat = _reduce(mat @ mat, p)
    return codes


def _scale_tables(omega: int, p: int, width: int, rows: int):
    """Yield, for start = 1, 1 + rows, ... below p-1, the (r, p^width) int32
    array whose row i maps each encoding v of `width` base-p digits to that
    of omega^(start + i) v, each digit scaled mod p.  The digit products are
    gathered from the powers of omega in F_p, at the digit's log to base
    omega, and the encodings are built one digit at a time by outer sums."""
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * omega % p)
    # omega^(j + log x) read at j + log x < 2(p-1); digit 0 reads zeros
    table = np.zeros(3 * (p - 1), dtype=np.int32)
    table[:p - 1] = powers
    table[p - 1:2 * (p - 1)] = table[:p - 1]
    logs = np.full(p, 2 * (p - 1))
    logs[table[:p - 1]] = np.arange(p - 1)
    for start in range(1, p - 1, rows):
        digit = table.take(np.arange(start, min(start + rows, p - 1))[:, None] + logs)
        scale = digit
        for i in range(1, width):
            scale = (digit[:, :, None] * p**i + scale[:, None, :]).reshape(len(digit), -1)
        yield scale


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

    def _primitive_element(self) -> tuple[int, np.ndarray, int]:
        """Smallest encoding g whose order is exactly q-1, with its float64
        multiplication matrix over F_p and its norm g^m in F_p,
        m = (q-1)/(p-1).  For d >= 2 the encodings below p are constants,
        of order dividing p-1 < q-1.  Candidates are tested _CANDIDATES at
        a time: c is primitive iff c^((q-1)/l) != 1 for each prime l | q-1.
        The norm N(c) = c^m lies in F_p, so for l | p-1 the test is
        N(c)^((p-1)/l) != 1, on scalars.  Every other l divides m, and
        c^((q-1)/l) = (c^(m/l))^(p-1) is 1 iff c^(m/l) lies in F_p, that is
        iff column 0 of its multiplication matrix, its own digits, is zero
        below the diagonal.  These powers share their squarings: the
        (C, d, d) stack is raised to m/r once, with r the product of these
        l, then to r/l for each l, and the power for the smallest l to l
        gives N(c)."""
        p, d, q = self.p, self.d, self.q
        m = (q - 1) // (p - 1)
        others = [ell for ell in self.q1_factors if (p - 1) % ell]
        rad = math.prod(others)
        norm_exps = [(p - 1) // ell for ell in self.q1_factors if (p - 1) % ell == 0]
        basis = _power_matrices(self.modulus, p)
        for lo in range(2 if d == 1 else p, q, _CANDIDATES):
            mats = _mul_matrices(np.arange(lo, min(lo + _CANDIDATES, q)), basis, p)
            base = power = _mat_pow(mats, m // rad, p)
            primitive = np.ones(len(mats), dtype=bool)
            for ell in reversed(others):
                power = _mat_pow(base, rad // ell, p)  # c^(m/l)
                primitive &= power[:, 1:, 0].any(axis=1)
            norm = _mat_pow(power, others[0], p) if others else base
            for i, n in enumerate(norm[:, 0, 0].astype(int).tolist()):
                if primitive[i] and all(pow(n, e, p) != 1 for e in norm_exps):
                    return lo + i, mats[i].copy(), n
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self) -> None:
        q1 = self.q - 1
        self.g_val, g_mat, omega = self._primitive_element()
        exp = self._exp_table(g_mat, omega)
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

    def _exp_table(self, g_mat: np.ndarray, omega: int) -> np.ndarray:
        """exp[i] = g^i for 0 <= i < q-1, for the primitive element g with
        multiplication matrix g_mat over F_p and norm omega = g^m,
        m = (q-1)/(p-1).  For d = 1 every entry comes from `_doubling`.
        For d >= 2 only the first m do: omega lies in F_p, so
        exp[j m + i] = omega^j exp[i], and a multiple by a constant of F_p
        scales each base-p digit mod p, with no carry.  The doubling encodes the low h = floor(d/2) digits and
        the high d - h digits of each entry apart, lo and hi with
        exp = lo + H hi, H = p^h.  The scale table T_j of `_scale_tables`
        maps an encoding v of at most d - h digits to that of omega^j v, so
        exp[j m + i] = T_j[lo_i] + H T_j[hi_i], two gathers per block of
        rows j."""
        p, d, q1 = self.p, self.d, self.q - 1
        if d == 1:
            return _doubling(g_mat, np.ones((1, 1)), q1, p)[0].astype(np.int64)
        m, h = q1 // (p - 1), d // 2
        weights = np.array([[p**i if i < h else 0 for i in range(d)],
                            [0 if i < h else p**(i - h) for i in range(d)]], dtype=np.float64)
        lo, hi = _doubling(g_mat, weights, m, p)
        exp = np.empty(q1, dtype=np.int64)
        np.multiply(hi, p**h, out=exp[:m])
        exp[:m] += lo
        start = m
        for scale in _scale_tables(omega, p, d - h, max(1, _SCALE_BLOCK // m)):
            block = scale.take(hi, axis=1)
            block *= p**h
            block += scale.take(lo, axis=1)
            exp[start:start + block.size] = block.reshape(-1)
            start += block.size
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

    def subfield_elements_v(self, sub_q: int) -> list[int]:
        """All encodings of the subfield with sub_q elements, ascending: 0
        and the powers of its generator, every (q-1)/(sub_q-1)-th exp entry."""
        if sub_q not in [self.p**e for e in range(1, self.d + 1) if self.d % e == 0]:
            raise NotASubfield(sub_q, self.q)
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

