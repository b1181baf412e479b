"""Exception taxonomy shared across the package.

Everything derives from FreesubError so callers can catch broadly; the CLI
maps specific classes onto its exit codes.
"""


class FreesubError(Exception):
    pass


class RingMismatch(FreesubError):
    """Operands belong to different coefficient rings."""


class NonInvertible(FreesubError):
    """Element has no inverse in Z/p^alpha (p divides it)."""


class NonInvertibleDenominator(FreesubError):
    """Rational cannot be reduced mod p^alpha: p divides its denominator."""


class NonInvertibleConstantTerm(FreesubError):
    """Series division requires an invertible constant term."""


class NotCoprime(FreesubError):
    """No Bezout identity: inputs share a factor mod p."""


class DegenerateParameters(FreesubError):
    """Closed-form coefficient formulas are undefined for these parameters."""


class SingularPadeSystem(FreesubError):
    """The linear system defining the approximant is inconsistent."""


class IntegralityViolation(FreesubError):
    """A quantity that must be an integer is not; signals an internal bug."""


class UnsupportedPrime(FreesubError):
    """Prime outside the family's supported range."""


class DegreeBoundExceeded(FreesubError):
    """No stable zero-run found: numerator search window too small."""


class HorizonTooShort(FreesubError):
    """Not enough series terms to confirm any period with a safety margin."""


class InvalidCongruenceClass(FreesubError):
    """Index n is not in a congruence class covered by the divisibility lemmas."""


class CertificationFailed(FreesubError):
    """A result failed one of the exact checks that certify it."""


def certify(holds: bool, what: str) -> None:
    """Raise CertificationFailed naming `what` unless `holds`.

    An explicit check, unlike `assert`, which `python -O` removes.
    """
    if not holds:
        raise CertificationFailed(f"certification failed: {what}")
