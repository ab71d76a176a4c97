"""Verification reports: named residual records with pass/fail flags."""

from dataclasses import dataclass, field

from .errors import InvariantViolation


@dataclass(frozen=True)
class Check:
    name: str
    ref: str
    residual: float
    passed: bool
    note: str = ""


@dataclass
class Report:
    """Ordered list of residual checks plus an overall classification.

    A check passes iff its residual is at or below the report tolerance;
    boolean facts are encoded as residual 0.0 / 1.0.
    """

    tolerance: float = 1e-9
    seed: int = 0
    title: str = ""
    classification: str | None = None
    checks: list = field(default_factory=list)

    def add(self, name: str, residual: float, ref: str = "", note: str = "") -> Check:
        check = Check(name, ref, float(residual), bool(residual <= self.tolerance), note)
        self.checks.append(check)
        return check

    def add_flag(self, name: str, ok: bool, ref: str = "", note: str = "") -> Check:
        return self.add(name, 0.0 if ok else 1.0, ref, note)

    def add_info(self, name: str, value: float, ref: str = "", note: str = "") -> Check:
        """Informational row: never fails the report.  The measured value is
        carried in the note so the residual column keeps the pass-iff-small
        invariant."""
        text = f"value {value:.6e}"
        if note:
            text = f"{note}; {text}"
        check = Check(name, ref, 0.0, True, text)
        self.checks.append(check)
        return check

    def extend(self, other: "Report", prefix: str = ""):
        for check in other.checks:
            self.checks.append(Check(prefix + check.name, check.ref,
                                     check.residual, check.passed, check.note))

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_residual(self) -> float:
        return max((check.residual for check in self.checks), default=0.0)

    def failures(self) -> list:
        return [check for check in self.checks if not check.passed]

    def require_passed(self, prefix: str):
        """Raise :class:`InvariantViolation` naming the worst failing row,
        ``"{prefix}: {name} residual {r}"``; nothing when every row passes."""
        if not self.passed:
            worst = max(self.failures(), key=lambda c: c.residual)
            raise InvariantViolation(
                f"{prefix}: {worst.name} residual {worst.residual:.3e}")

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def to_payload(self) -> dict:
        return {
            "title": self.title,
            "classification": self.classification,
            "environment": {"tolerance": self.tolerance, "seed": self.seed},
            "checks": [
                {
                    "name": c.name,
                    "ref": c.ref,
                    "residual": f"{c.residual:.5e}",  # six significant digits
                    "pass": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }

    def render_table(self) -> str:
        lines = []
        if self.title:
            lines.append(self.title)
        width = max([len(c.name) for c in self.checks] + [4])
        rwidth = max([len(c.ref) for c in self.checks] + [3])
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            note = f"  {c.note}" if c.note else ""
            lines.append(f"  {mark:4} {c.name:<{width}}  {c.ref:<{rwidth}}  "
                         f"{c.residual:.6e}{note}")
        if self.classification is not None:
            lines.append(f"classification: {self.classification}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'} "
                     f"({len(self.checks)} checks, tolerance {self.tolerance:g})")
        return "\n".join(lines)
