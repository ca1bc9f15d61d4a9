"""Vectors in the group ring C[D], indexed by element index into the parent."""

from fractions import Fraction


class GroupRingVector:
    """Sparse vector over a finite quadratic module.

    Coefficients are Fractions (ints are converted) or CycNumbers; index keys
    are element indices of the parent module.  Zero coefficients are dropped,
    so equal vectors have equal coefficient maps.
    """

    def __init__(self, parent, coeffs=None):
        self.parent = parent
        self.coeffs = {
            i: Fraction(v) if isinstance(v, int) else v
            for i, v in (coeffs or {}).items()
            if v
        }

    @classmethod
    def characteristic(cls, parent, indices):
        return cls(parent, {i: 1 for i in indices})

    def support(self):
        return sorted(self.coeffs)

    def get(self, i):
        return self.coeffs.get(i, Fraction(0))

    def __add__(self, other):
        assert self.parent == other.parent
        c = dict(self.coeffs)
        for i, v in other.coeffs.items():
            c[i] = c[i] + v if i in c else v
        return GroupRingVector(self.parent, c)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return GroupRingVector(self.parent, {i: v * s for i, v in self.coeffs.items()})

    def dense(self):
        """Dense coefficient list over all of D."""
        return [self.get(i) for i in range(self.parent.size)]

    def __eq__(self, other):
        if not isinstance(other, GroupRingVector) or self.parent != other.parent:
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return "GroupRingVector(%r)" % (self.coeffs,)

