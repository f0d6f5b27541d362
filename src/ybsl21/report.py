"""Machine-readable pass/fail records shared by every checker.

Two rules take a check's outcome to the output.  Each comparison of a
computed value with its expected one is `CheckReport.expect`.  Each
exception that ends a run meets `cli._collect`: `SingularParameters` exits 2
(configuration error), any other exits 3 after the reports finished so far.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

from .superpoly import SuperPolynomial

#: the failures a report stores; later ones only set its status
STORED_FAILURES = 5


@dataclass
class Failure:
    input: str
    lhs: str
    rhs: str
    residual: str


@dataclass
class CheckReport:
    """Outcome of one exact check; status 'pass' iff failures is empty."""

    check_name: str
    params: dict[str, str] = field(default_factory=dict)
    max_degree: int | None = None
    status: str = "pass"          # pass | fail | error | skip
    failures: list[Failure] = field(default_factory=list)
    elapsed_ms: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def add_failure(self, input_text: str, lhs: str, rhs: str,
                    residual: str) -> None:
        """Record a failure; only the first STORED_FAILURES are stored."""
        if len(self.failures) < STORED_FAILURES:
            self.failures.append(Failure(input_text, lhs, rhs, residual))
        self.status = "fail"

    def expect(self, label: str, got, want) -> None:
        """Record a failure on `label` unless got == want.

        A polynomial renders as `text()` with residual (got - want).text(),
        a tuple (a matrix) as `str` with residual "-", anything else as
        `str` with residual str(got - want).
        """
        if got == want:
            return
        if isinstance(got, SuperPolynomial):
            self.add_failure(label, got.text(), want.text(),
                             (got - want).text())
        elif isinstance(got, tuple):
            self.add_failure(label, str(got), str(want), "-")
        else:
            self.add_failure(label, str(got), str(want), str(got - want))

    @contextmanager
    def timed(self, *errors: type[BaseException]):
        """Time the block into `elapsed_ms`.

        An exception of one of the listed types ends the block with status
        'error' and the note "{Type}: {message}"; failures and notes recorded
        before it are kept.  Any other exception propagates.
        """
        t0 = time.perf_counter()
        try:
            yield self
        except errors as exc:
            self.status = "error"
            self.notes.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.elapsed_ms = (time.perf_counter() - t0) * 1e3

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        """Fold a sub-check into this report, tagging its failures."""
        self.failures.extend(replace(f, input=prefix + f.input)
                             for f in other.failures)
        del self.failures[20:]
        self.notes.extend(prefix + n for n in other.notes)
        if other.status == "error":
            self.status = "error"
        elif other.status == "fail" and self.status != "error":
            self.status = "fail"

    def to_dict(self, include_timings: bool = False) -> dict:
        d = {
            "check_name": self.check_name,
            "params": dict(sorted(self.params.items())),
            "max_degree": self.max_degree,
            "status": self.status,
            "failures": [asdict(f) for f in self.failures],
            "notes": list(self.notes),
        }
        # wall-clock time is excluded by default so that identical configs
        # serialize to identical bytes
        if include_timings:
            d["elapsed_ms"] = self.elapsed_ms
        return d
