"""The two correctness invariants, each stated once.

MGPS may move work between task-level and loop-level parallelism,
between blades, through caches and around faults, but never change
what was computed or drop a job.  Every caller that checks either
promise goes through this module:

* **job conservation** — every admitted job ends in exactly one
  terminal class: ``admitted == completed + cancelled + deadline_aborts
  + lost``, read from a serving summary (:class:`~repro.serve.service
  .ServeResult`'s ``summary``, which carries ``lost``);
* **digest invariance** — a ``key -> result digest`` map (per job
  source, per bootstrap) is identical to the reference run's on every
  key; :func:`digest_diff` names the keys that differ.

Each check returns a list of :class:`Violation` records, empty when
the invariant holds.  The checks run on finished results, never on the
simulation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Tuple

__all__ = ["Violation", "conservation", "no_lost_jobs", "digest_diff"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which check, what broke, on which keys."""

    check: str
    detail: str
    keys: Tuple[Any, ...] = ()

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


def conservation(summary: Mapping[str, Any]) -> List[Violation]:
    """admitted == completed + cancelled + deadline_aborts + lost."""
    s = summary
    if s["admitted"] == (s["completed"] + s["cancelled"]
                         + s["deadline_aborts"] + s["lost"]):
        return []
    return [Violation(
        "conservation",
        f"admitted {s['admitted']} != completed {s['completed']} + "
        f"cancelled {s['cancelled']} + aborted {s['deadline_aborts']} + "
        f"lost {s['lost']}",
    )]


def no_lost_jobs(summary: Mapping[str, Any]) -> List[Violation]:
    """No admitted job was lost to total fleet failure."""
    if summary["lost"] == 0:
        return []
    return [Violation("lost", f"lost {summary['lost']} job(s)")]


def digest_diff(reference: Mapping[Any, str],
                candidate: Mapping[Any, str]) -> List[Violation]:
    """Keys missing from, extra in, or changed in ``candidate``."""
    if candidate == reference:
        return []
    groups = (
        ("digest.missing", reference.keys() - candidate.keys()),
        ("digest.extra", candidate.keys() - reference.keys()),
        ("digest.changed", [k for k in reference.keys() & candidate.keys()
                            if reference[k] != candidate[k]]),
    )
    out = []
    for check, keys in groups:
        if keys:
            ordered = tuple(sorted(keys))
            more = ", ..." if len(ordered) > 3 else ""
            out.append(Violation(
                check,
                f"{len(ordered)} key(s): "
                f"{', '.join(map(str, ordered[:3]))}{more}",
                ordered,
            ))
    return out
