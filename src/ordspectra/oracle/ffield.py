"""Small finite fields with fully tabulated arithmetic.

Elements of F(p**e) are integers 0..p**e-1 encoding polynomial
coefficients in base p against a fixed modulus: the lexicographically
smallest monic irreducible of degree e over F_p.  The fixed modulus
makes every construction in this package reproducible bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import DomainError


def _poly_from_code(code: int, p: int) -> list[int]:
    coeffs = []
    while code:
        coeffs.append(code % p)
        code //= p
    return coeffs


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    e = len(modulus) - 1
    # reduce: modulus is monic
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * modulus[j]) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= e//2."""
    e = len(poly) - 1
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg):
            low = _poly_from_code(code, p)
            divisor = low + [0] * (deg - len(low)) + [1]
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _poly_divides(d: list[int], poly: list[int], p: int) -> bool:
    rem = list(poly)
    dd = len(d) - 1
    inv_lead = pow(d[-1], -1, p)
    while len(rem) - 1 >= dd and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(d):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return not any(rem)


class Fq:
    """Finite field of order q = p**e with add/mul lookup tables."""

    def __init__(self, p: int, e: int):
        if e < 1 or e > 6:
            raise DomainError("field degree must be between 1 and 6")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = [0, 1]
        else:
            for code in range(p**e):
                cand = _poly_from_code(code, p)
                cand += [0] * (e - len(cand))
                cand.append(1)  # monic
                if _is_irreducible(cand, p):
                    self.modulus = cand
                    break
        q = self.q
        polys = [_poly_from_code(c, p) for c in range(q)]
        self.add = [[self._encode(self._poly_add(polys[a], polys[b])) for b in range(q)]
                    for a in range(q)]
        self.mul = [[self._encode(_poly_mul_mod(polys[a], polys[b], self.modulus, p))
                     for b in range(q)] for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)
        self.frob = [pow_elem(self, a, p) for a in range(q)]
        self.generator = self._find_generator()

    def _poly_add(self, a: list[int], b: list[int]) -> list[int]:
        n = max(len(a), len(b))
        return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % self.p
                for i in range(n)]

    def _encode(self, poly: list[int]) -> int:
        code = 0
        for c in reversed(poly):
            code = code * self.p + c
        return code

    def _find_generator(self) -> int:
        for g in range(2, self.q):
            x = g
            count = 1
            while x != 1:
                x = self.mul[x][g]
                count += 1
            if count == self.q - 1:
                return g
        return 1  # q = 2

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def conj(self, a: int, half: int) -> int:
        """a**(p**half); the unitary conjugation when q = q0**2, half = e//2."""
        for _ in range(half):
            a = self.frob[a]
        return a


def pow_elem(field: "Fq", a: int, n: int) -> int:
    out = 1
    base = a
    while n:
        if n & 1:
            out = field.mul[out][base]
        base = field.mul[base][base]
        n >>= 1
    return out


@lru_cache(maxsize=None)
def get_field(p: int, e: int) -> Fq:
    return Fq(p, e)
