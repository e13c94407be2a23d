"""ASCII Gantt rendering of simulation traces.

Renders the per-processor schedule as text — one row per resource, time
flowing right — so a rundown (and its filling by overlapped successor
work) is visible at a glance::

    P0 |AAAAAAAABBBBBBBB....|
    P1 |AAAAAAAA....BBBBBBBB|
    EX |mm..m.m..m.m........|

Characters: the first letter of the phase label for compute intervals,
``m`` for management, ``s`` for serial actions, ``.`` for idle.
"""

from __future__ import annotations

from repro.sim.trace import Trace

__all__ = ["render_gantt"]


def _cell_char(label: str, category: str) -> str:
    if category == "mgmt":
        return "m"
    if category == "serial":
        return "s"
    if label:
        return label[0]
    return "#"


def render_gantt(
    trace: Trace,
    width: int = 80,
    resources: list[str] | None = None,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """Render the trace as an ASCII Gantt chart.

    Parameters
    ----------
    trace:
        A finished simulation trace.
    width:
        Number of character cells spanning ``[t0, t1)``.
    resources:
        Rows to draw (defaults to every recorded resource, workers first).
    t0, t1:
        Time window (defaults to the trace's full span).

    Each cell shows the interval covering the cell's *midpoint*; compute
    intervals win over management when both touch a cell.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    lo, hi = trace.span()
    t0 = lo if t0 is None else t0
    t1 = hi if t1 is None else t1
    if t1 <= t0:
        return "(empty trace)"
    if resources is None:
        all_res = trace.resources()
        workers = sorted(
            (r for r in all_res if r.startswith("P") and r[1:].isdigit()),
            key=lambda r: int(r[1:]),
        )
        others = [r for r in all_res if r not in workers]
        resources = workers + others
    dt = (t1 - t0) / width
    name_w = max((len(r) for r in resources), default=2)
    lines = [
        f"{'':{name_w}}  t = [{t0:g}, {t1:g})  ({dt:g} per cell)",
    ]
    for res in resources:
        cells = [" "] * width
        priority = [0] * width  # 0 idle, 1 mgmt/serial, 2 compute
        for _, start, end, category, label in trace.interval_rows(res):
            if end <= t0 or start >= t1:
                continue
            c0 = max(0, int((start - t0) / dt))
            c1 = min(width, int((end - t0) / dt) + 1)
            ch = _cell_char(label, category)
            prio = 2 if category == "compute" else 1
            for c in range(c0, c1):
                mid = t0 + (c + 0.5) * dt
                if start <= mid < end and prio >= priority[c]:
                    cells[c] = ch
                    priority[c] = prio
        row = "".join(ch if ch != " " else "." for ch in cells)
        lines.append(f"{res:{name_w}} |{row}|")
    return "\n".join(lines)
