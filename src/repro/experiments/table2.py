"""Table 2: per-application class and memory-efficiency values.

The paper profiles each SPEC CPU2000 application on a single core
(10 M-instruction SimPoint) and reports its MEM/ILP class and memory
efficiency (Eq. 1).  This harness regenerates the table from our synthetic
application models; the *absolute* values differ from the paper's (the
synthetic substrate has its own units and the published values depend on
the authors' exact slices) — the class split and the rank ordering are the
reproduction targets, and the ``rank_correlation`` helper quantifies the
latter against the published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import ExperimentContext
from repro.workloads.spec2000 import APPS, AppProfile

__all__ = ["Table2Row", "run_table2", "rank_correlation", "format_table2"]


@dataclass(frozen=True)
class Table2Row:
    app: str
    code: str
    klass: str
    paper_me: float
    measured_me: float
    measured_ipc: float
    measured_bw_gbps: float


def run_table2(ctx: ExperimentContext, seed: int | None = None) -> list[Table2Row]:
    """Profile all 26 applications and build the table."""
    seed = seed if seed is not None else ctx.seeds[0]
    rows = []
    for app in APPS:
        p = ctx.profile(app, seed)
        rows.append(
            Table2Row(
                app=app.name,
                code=app.code,
                klass=app.klass,
                paper_me=app.paper_me,
                measured_me=p.me,
                measured_ipc=p.ipc,
                measured_bw_gbps=p.bw_gbps,
            )
        )
    return rows


def rank_correlation(rows: list[Table2Row]) -> float:
    """Spearman rank correlation between paper and measured ME values.

    Computed directly (no scipy dependency in the library path); ties get
    average ranks.
    """
    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        r = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    paper = ranks([row.paper_me for row in rows])
    measured = ranks([row.measured_me for row in rows])
    n = len(rows)
    mp = sum(paper) / n
    mm = sum(measured) / n
    cov = sum((p - mp) * (m - mm) for p, m in zip(paper, measured))
    vp = sum((p - mp) ** 2 for p in paper)
    vm = sum((m - mm) ** 2 for m in measured)
    if vp == 0 or vm == 0:
        return 0.0
    return cov / (vp * vm) ** 0.5


def format_table2(rows: list[Table2Row]) -> str:
    lines = ["== Table 2: application class and memory efficiency =="]
    lines.append(
        f"{'app':<9} {'code':<4} {'class':<5} {'paper ME':>9} "
        f"{'ME':>9} {'IPC':>6} {'BW GB/s':>8}"
    )
    for r in sorted(rows, key=lambda x: x.code):
        lines.append(
            f"{r.app:<9} {r.code:<4} {r.klass:<5} {r.paper_me:>9.0f} "
            f"{r.measured_me:>9.3f} {r.measured_ipc:>6.2f} "
            f"{r.measured_bw_gbps:>8.3f}"
        )
    lines.append(f"Spearman rank correlation vs paper: {rank_correlation(rows):.3f}")
    return "\n".join(lines)
