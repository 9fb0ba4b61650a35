"""Semantic exceptions and the check report shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_DETAILS = 5


class ValidationError(ValueError):
    """An input violates a documented contract (bad config, bad document,
    precondition failure). Maps to exit code 2 in the command line tool."""


class NumericsError(RuntimeError):
    """A computation produced non-finite values and was aborted."""


@dataclass
class Report:
    """Outcome of one certificate: checks run, checks failed, the worst
    amount recorded, and witnesses of the first ``MAX_DETAILS`` failures."""

    name: str
    checks: int = 0
    failures: int = 0
    worst: float = 0.0
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, amount: float = 0.0, detail: str = "", *args) -> None:
        """Count one check and raise ``worst`` to ``amount``. A failed check
        keeps ``detail % args`` as a witness; it is formatted only then."""
        self.checks += 1
        if amount > self.worst:
            self.worst = amount
        if not ok:
            self.failures += 1
            if len(self.details) < MAX_DETAILS:
                self.details.append(detail % args if args else detail)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.checks} checks, {self.failures} failures, "
            f"worst={self.worst:.3e}"
        )
