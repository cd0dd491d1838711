"""Exception hierarchy shared by all modules.

Each error carries the command-line exit code it ends in, so the CLI maps
every error in one place: `MdssdError` (2) for invalid parameters or
malformed input, `CannotCarryOut` (3) for valid input that a budget or a
construction step refuses, and `SpotCheckFailed` (4) for a census length
that failed to verify."""

from __future__ import annotations


def _quantity(n: int) -> str:
    """n in decimal, or its size in bits when the decimal form would be long
    (Python refuses to convert integers of more than 4300 digits)."""
    return str(n) if n.bit_length() <= 1024 else f"a {n.bit_length()}-bit number"


class MdssdError(Exception):
    """Base class for all package errors: invalid parameters or malformed
    input."""

    exit_code = 2


class CannotCarryOut(MdssdError):
    """Valid input that cannot be carried out: a budget refuses it, or a
    construction step fails."""

    exit_code = 3


# --- field construction / arithmetic ---

class NonPrime(MdssdError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not prime")


class EvenCharacteristic(MdssdError):
    def __init__(self):
        super().__init__("characteristic 2 is out of scope (odd characteristic only)")


class DegreeZero(MdssdError):
    def __init__(self):
        super().__init__("extension degree must be >= 1")


class FieldTooLarge(CannotCarryOut):
    def __init__(self, p: int, d: int, budget: int):
        super().__init__(f"q = {p}^{d} exceeds the field materialization budget {budget}")


class ZeroToNegativePower(CannotCarryOut):
    def __init__(self):
        super().__init__("zero cannot be raised to a negative power")


class NotDividing(CannotCarryOut):
    def __init__(self, m: int, modulus: int):
        super().__init__(f"{m} does not divide {modulus}")


class NotASubfield(CannotCarryOut):
    def __init__(self, sub_q: int, q: int):
        super().__init__(f"{sub_q} does not define a subfield of the field with {q} elements")


# --- code assembly ---

class DimensionMismatch(CannotCarryOut):
    pass


class MalformedArtifact(MdssdError, ValueError):
    def __init__(self, detail: str):
        super().__init__(f"malformed artifact: {detail}")


class DuplicatePoint(CannotCarryOut):
    def __init__(self):
        super().__init__("evaluation points must be pairwise distinct")


class OddLength(CannotCarryOut):
    def __init__(self, n: int):
        super().__init__(f"self-dual codes require even length, got n = {n}")


class InvalidLambda(MdssdError, ValueError):
    def __init__(self, lam: object, q: int):
        shown = _quantity(lam) if type(lam) is int else repr(lam)
        super().__init__(f"lambda must be a nonzero field element in [1, {q}), got {shown}")


class SquareConditionViolated(CannotCarryOut):
    def __init__(self, index: int):
        super().__init__(f"square condition fails at evaluation point index {index}")
        self.index = index


# --- constructions ---

class HypothesisViolated(MdssdError):
    def __init__(self, clause: str):
        super().__init__(f"hypothesis violated: {clause}")
        self.clause = clause


class InvalidCosetCount(MdssdError, ValueError):
    def __init__(self, t: int):
        super().__init__(f"t must be at least 1, got t = {_quantity(t)}")


class NotEnoughCosets(CannotCarryOut):
    def __init__(self, wanted: int, available: int):
        super().__init__(f"needed {wanted} coset representatives, only {available} exist")


class ParityInfeasible(CannotCarryOut):
    def __init__(self, detail: str):
        super().__init__(f"no representative set with the required parity: {detail}")


class TooLargeToMaterialize(CannotCarryOut):
    def __init__(self, n: int, budget: int):
        super().__init__(f"parameters are valid but n = {_quantity(n)} exceeds the build "
                         f"budget {budget}")


class TooLargeToValidate(CannotCarryOut):
    def __init__(self, p: int, d: int, bits: int):
        super().__init__(f"q = {p}^{d} may have more than {bits} bits, beyond the "
                         f"validation budget")


class UnsupportedTheorem(MdssdError):
    def __init__(self, theorem: str):
        super().__init__(f"unknown construction {theorem!r}")


# --- verification ---

class TooLarge(CannotCarryOut):
    def __init__(self, detail: str):
        super().__init__(f"verification budget exceeded: {detail}")


# --- census ---

class EvenQ(MdssdError):
    def __init__(self, q: int):
        super().__init__(f"census requires an odd prime power, got q = {q}")


class BudgetExceeded(CannotCarryOut):
    def __init__(self, q: int, budget: int):
        super().__init__(f"q = {q} exceeds the census budget {budget}")


class SpotCheckFailed(MdssdError):
    exit_code = 4

    def __init__(self, n: int, detail: str):
        super().__init__(f"claimed length n = {n} could not be realized: {detail}")
