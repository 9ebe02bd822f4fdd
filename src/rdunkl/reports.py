"""Verification reports: the unit of output for every checkable claim."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: default kind: the check passes when the residual is at most the tolerance
KIND_RESIDUAL_BELOW = "residual-below"
#: negative controls: the check passes when the residual EXCEEDS the floor
#: stored in ``tolerance`` (a deliberately failing identity must keep failing)
KIND_EXCEEDS_FLOOR = "exceeds-floor"
#: measurement without a verdict; ``passed`` is always true
KIND_MEASURED = "measured"


@dataclass
class VerificationReport:
    """One checkable claim: identifier, parameters, residual, tolerance,
    verdict, and free-form notes.

    The wire format uses the key "pass" for the verdict; the attribute is
    ``passed`` only because ``pass`` is reserved in Python.
    """

    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    notes: list = field(default_factory=list)
    kind: str = KIND_RESIDUAL_BELOW

    def to_dict(self) -> dict:
        # the fields one level deep: make_report has already turned the
        # params into JSON-ready values
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "residual": self.residual,
            # measured-only checks carry no tolerance
            "tolerance": self.tolerance if math.isfinite(self.tolerance) else None,
            "notes": list(self.notes),
            "kind": self.kind,
            "pass": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        d = dict(d)
        if "pass" in d:
            d["passed"] = d.pop("pass")
        if d.get("tolerance") is None:
            d["tolerance"] = float("nan")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "VerificationReport":
        return cls.from_dict(json.loads(s))


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "item"):
        return v.item()
    return v


def make_report(check_id, params, residual, tolerance,
                kind=KIND_RESIDUAL_BELOW, notes=()) -> VerificationReport:
    residual = float(residual)
    tolerance = float(tolerance)
    if kind == KIND_RESIDUAL_BELOW:
        passed = residual <= tolerance
    elif kind == KIND_EXCEEDS_FLOOR:
        passed = residual > tolerance
    elif kind == KIND_MEASURED:
        passed = True
    else:
        raise ValueError(f"unknown report kind {kind!r}")
    clean = {k: _jsonable(v) for k, v in params.items()}
    return VerificationReport(
        check_id=check_id,
        params=clean,
        residual=residual,
        tolerance=tolerance,
        passed=passed,
        notes=list(notes),
        kind=kind,
    )
