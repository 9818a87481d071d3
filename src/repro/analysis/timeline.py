"""ASCII timelines of SPE schedules — the Figure 2 view.

The paper's Figure 2 illustrates how the EDTLP scheduler keeps SPEs busy
while the Linux scheduler strands them.  :func:`render_timeline` draws
the same picture from a recorded trace: one row per SPE, time flowing
right, a block per off-loaded task labeled with the owning MPI process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.runview import read_run
from ..sim.trace import Tracer

__all__ = ["TaskSpan", "extract_spans", "render_timeline", "utilization_bar"]


@dataclass(frozen=True)
class TaskSpan:
    """One task execution on one SPE."""

    spe: str
    start: float
    end: float
    proc: int
    function: str
    workers: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


def extract_spans(tracer: Tracer) -> List[TaskSpan]:
    """Pair up task_start/task_end records into spans, in end order.

    The pairing is :func:`repro.obs.runview.read_run`'s, shared with the
    HTML report and the health monitor: a nested ``task_start`` or an
    unmatched ``task_end`` raises :class:`ValueError`; a task still open
    at the end of the trace yields no span.
    """
    return [TaskSpan(t.spe, t.start, t.end, t.proc, t.function, t.workers)
            for t in read_run(tracer).tasks]


def render_timeline(
    tracer: Tracer,
    width: int = 72,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
    spes: Optional[Sequence[str]] = None,
) -> str:
    """Draw one character row per SPE over [t_start, t_end].

    Each busy cell shows the digit of the owning MPI process (mod 10);
    ``.`` is idle; ``+`` marks a cell where several tasks begin and end
    within one character column.
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    spans = extract_spans(tracer)
    if not spans:
        return "(no SPE activity recorded)"
    if t_end is None:
        t_end = max(s.end for s in spans)
    if t_end <= t_start:
        raise ValueError("empty time window")
    if spes is None:
        spes = sorted({s.spe for s in spans})
    scale = width / (t_end - t_start)

    lines = [
        f"SPE timeline  [{t_start * 1e3:.2f} ms .. {t_end * 1e3:.2f} ms]"
        f"  (digit = MPI process, '.' = idle)"
    ]
    for spe in spes:
        row = ["."] * width
        owners_per_cell: Dict[int, set] = {}
        for s in spans:
            if s.spe != spe or s.end < t_start or s.start > t_end:
                continue
            c0 = max(0, int((s.start - t_start) * scale))
            c1 = min(width - 1, int((s.end - t_start) * scale))
            for c in range(c0, c1 + 1):
                owners_per_cell.setdefault(c, set()).add(s.proc)
        for c, owners in owners_per_cell.items():
            row[c] = str(min(owners) % 10) if len(owners) == 1 else "+"
        lines.append(f"{spe:>12s} |{''.join(row)}|")
    return "\n".join(lines)


def utilization_bar(
    tracer: Tracer, makespan: float, width: int = 40
) -> str:
    """Per-SPE utilization bars computed from the trace."""
    spans = extract_spans(tracer)
    busy: Dict[str, float] = {}
    for s in spans:
        busy[s.spe] = busy.get(s.spe, 0.0) + s.duration
    if not busy or makespan <= 0:
        return "(no SPE activity recorded)"
    lines = []
    for spe in sorted(busy):
        frac = min(1.0, busy[spe] / makespan)
        bar = "#" * round(frac * width)
        lines.append(f"{spe:>12s} |{bar:<{width}s}| {frac:5.1%}")
    return "\n".join(lines)
