"""Small finite fields with fully tabulated arithmetic.

An element of F(p**e) is its code 0..p**e-1, whose base-p digits are
the coefficients of a polynomial in x of degree below e, constant term
first (code = sum c_i * p**i).  Three tables over the codes carry all
the arithmetic: addition is digitwise mod p, a constant times an element
is digitwise too, and multiplication by x shifts the digits up and
reduces the digit that falls off by the modulus.  Multiplication follows
by Horner's rule over the digits: a*b = a_0*b + x*((a // p)*b), so each
row of the table is read off an earlier one.

The modulus is the first monic x**e + low, in code order of low, whose
quotient ring has no zero divisors.  The test reads the multiplication
table just built for that candidate, since a finite commutative ring
without zero divisors is a field; it is the lexicographically smallest
monic irreducible of degree e over F_p.  The fixed modulus makes every
construction in this package reproducible bit for bit.  Fq itself has
no size limit: the oracle's limits are its 256 points and its order cap.
"""

from __future__ import annotations

from functools import lru_cache


class Fq:
    """Finite field of order q = p**e with add/mul lookup tables."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.q = q = p**e
        top = q // p  # the weight of the leading digit
        # rows a >= 1 recur on row a // p: the code of a with its constant
        # digit dropped, i.e. (a - a_0) / x
        add = [list(range(q))]
        for a in range(1, q):
            add.append([(a + b) % p + p * add[a // p][b // p] for b in range(q)])
        scale = []  # scale[c][b] = c*b for a constant c
        for c in range(p):
            row = [0]
            for b in range(1, q):
                row.append(c * b % p + p * row[b // p])
            scale.append(row)
        for low in range(q):  # the modulus x**e + low, so x**e = -low
            times_x = [add[p * (b % top)][scale[-(b // top) % p][low]] for b in range(q)]
            mul = [[0] * q]
            for a in range(1, q):
                row = [add[scale[a % p][b]][times_x[m]] for b, m in enumerate(mul[a // p])]
                if 0 in row[1:]:  # a zero divisor: x**e + low is reducible
                    break
                mul.append(row)
            else:
                break
        self.modulus = [low // p**i % p for i in range(e)] + [1]
        self.add = add
        self.mul = mul
        self.neg = scale[p - 1]
        self.inv = [0] + [row.index(1) for row in mul[1:]]
        self.frob = [pow_elem(self, a, p) for a in range(q)]
        self.generator = next((g for g in range(2, q) if self._order(g) == q - 1), 1)

    def _order(self, g: int) -> int:
        x, count = g, 1
        while x != 1:
            x = self.mul[x][g]
            count += 1
        return count

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
