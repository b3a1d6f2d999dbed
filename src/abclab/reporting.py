"""Verification report container used by assumption checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    value: float
    tol: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    """Named residual map; every item carries the tolerance it was judged at."""

    items: dict[str, CheckItem] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, value: float, tol: float, passed: bool | None = None,
            note: str = "") -> CheckItem:
        if passed is None:
            passed = bool(value <= tol)
        item = CheckItem(value=float(value), tol=float(tol), passed=bool(passed), note=note)
        self.items[name] = item
        return item

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items.values())

    def to_dict(self) -> dict:
        return {
            "items": {
                name: {"value": it.value, "tol": it.tol, "passed": it.passed,
                       **({"note": it.note} if it.note else {})}
                for name, it in sorted(self.items.items())
            },
            "passed": self.passed,
            "metadata": self.metadata,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for name, it in sorted(self.items.items()):
            status = "PASS" if it.passed else "FAIL"
            lines.append(f"{status} {name}: value={it.value:.6e} tol={it.tol:.6e}")
        return lines
