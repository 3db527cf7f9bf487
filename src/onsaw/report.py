"""Deterministic check reports shared by the library and the CLI.

A report carries no clock: a library check leaves `elapsed_ms` at 0, so
the same call builds the same report, and `cli.main` stamps the one
elapsed time a printed report shows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    detail: str | None = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name: str, passed: bool, detail: str | None = None) -> Check:
        check = Check(name, "pass" if passed else "fail", None if passed else detail)
        self.checks.append(check)
        return check

    def add_check(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "params": {k: self.params[k] for k in self.params},
            "checks": [c.as_dict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        if self.params:
            lines.append("  " + " ".join(f"{k}={v}" for k, v in self.params.items()))
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL"}[c.status]
            line = f"{mark}  {c.name}"
            if c.detail:
                line += f"  [{c.detail}]"
            lines.append(line)
        n_fail = len(self.failures())
        lines.append(
            f"{len(self.checks)} checks, {n_fail} failed ({self.elapsed_ms} ms)"
        )
        return "\n".join(lines)


def mono_str(mono) -> str:
    """Render a monomial key as a list of (variable, exponent) pairs."""
    return "[" + ", ".join(f"({n},{e})" for n, e in mono) + "]"
