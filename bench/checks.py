"""Checked operations: each program output is compared with a reference
computed apart from the program (see oracles.py) or with a bound the method
must respect."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# kinds of comparison
ABS = "abs"      # |value - ref| <= tol; tol == 0 means bit-identical
REL = "rel"      # |value - ref| <= tol * |ref|
BELOW = "le"     # value <= ref + tol
ABOVE = "ge"     # value >= ref - tol


@dataclass(frozen=True)
class Check:
    what: str
    value: float
    ref: float
    tol: float
    kind: str

    def accepts(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.kind == ABS:
            return abs(value - self.ref) <= self.tol
        if self.kind == REL:
            return abs(value - self.ref) <= self.tol * abs(self.ref)
        if self.kind == BELOW:
            return value <= self.ref + self.tol
        if self.kind == ABOVE:
            return value >= self.ref - self.tol
        raise ValueError(f"unknown check kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        return self.accepts(self.value)

    def moved_values(self):
        """Values moved by 10x the tolerance, which the check must reject:
        from the reference both ways for two-sided checks, beyond the bound
        for one-sided ones; by one ulp where the tolerance is 0."""
        if self.kind in (ABS, REL):
            step = 10.0 * self.tol * (abs(self.ref) if self.kind == REL else 1.0)
            if step == 0.0:
                return [math.nextafter(self.ref, math.inf), math.nextafter(self.ref, -math.inf)]
            return [self.ref + step, self.ref - step]
        bound = self.ref + self.tol if self.kind == BELOW else self.ref - self.tol
        direction = 1.0 if self.kind == BELOW else -1.0
        step = 10.0 * self.tol
        if step == 0.0:
            return [math.nextafter(bound, direction * math.inf)]
        return [bound + direction * step]


@dataclass
class Op:
    """One program call whose output is checked. `known_fault` marks the
    operation that fails because of a fault named in the README; it counts
    as failed without making the run incorrect."""

    name: str
    checks: list = field(default_factory=list)
    known_fault: bool = False

    def check(self, what, value, ref, tol, kind):
        self.checks.append(Check(what, float(value), float(ref), float(tol), kind))
        return self

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)


def vacuous_checks(ops) -> list:
    """Checks that accept a value moved 10x their tolerance, or whose
    tolerance is not finite: none should."""
    return [c for op in ops for c in op.checks
            if not math.isfinite(c.tol) or any(c.accepts(v) for v in c.moved_values())]
