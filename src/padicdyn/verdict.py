"""Uniform pass/fail result objects carried by every checker in the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import InternalCheckError


def _jsonify(obj):
    """Render nested payloads with every integer as a decimal string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion evaluated at a stated depth.

    `condition` names the first failing clause when the criterion has several;
    `witness` holds the concrete inputs that exhibit the failure (or, for a
    pass, any data worth reporting such as derived residues).
    """

    passed: bool
    criterion: str
    condition: str | None = None
    witness: dict[str, Any] | None = None
    depth: int | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out = {"pass": self.passed, "criterion": self.criterion}
        if self.condition is not None:
            out["condition"] = self.condition
        if self.depth is not None:
            out["depth"] = self.depth
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.details:
            out["details"] = _jsonify(self.details)
        return out


def passing(criterion: str, depth: int | None = None, **details) -> CriterionVerdict:
    return CriterionVerdict(True, criterion, depth=depth, details=details)


def failing(
    criterion: str,
    condition: str,
    witness: dict[str, Any] | None = None,
    depth: int | None = None,
    **details,
) -> CriterionVerdict:
    return CriterionVerdict(
        False, criterion, condition=condition, witness=witness, depth=depth, details=details
    )


def checklist_verdict(criterion: str, checks, values, depth: int | None = None) -> CriterionVerdict:
    """The verdict of a check-list: checks are (label, wanted) pairs tried in
    order against values, and the first whose value differs fails, with the
    value and the wanted one as its witness."""
    for (label, want), got in zip(checks, values):
        if got != want:
            return failing(criterion, label, witness={"value": got, "expected": want}, depth=depth)
    return passing(criterion, depth=depth)


def require_agreement(quantity: str, *verdicts: CriterionVerdict) -> None:
    """Raise InternalCheckError (exit 3) naming every route and its verdict
    when routes to one quantity disagree."""
    if len({v.passed for v in verdicts}) > 1:
        routes = ", ".join(f"{v.criterion} passed={v.passed}" for v in verdicts)
        raise InternalCheckError(f"{quantity} routes disagree: {routes}")
