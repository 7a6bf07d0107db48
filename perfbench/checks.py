"""Correctness checks against the generator's ground truth.

Each check returns a list of problems; an empty list means it passed.
They compare the program's outputs with what the generator planted and
counted, never with an earlier run of the program.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


def check_reports(delivered: Iterable[Tuple[str, float]],
                  planted: Dict[str, float]) -> List[str]:
    """Every plant reported exactly once at its change tick; nothing else.

    Args:
        delivered: ``(series, change time)`` of every delivered report.
        planted: Planted change time by series.
    """
    problems = []
    seen: Dict[str, List[float]] = {}
    for series, change_time in delivered:
        seen.setdefault(series, []).append(float(change_time))
    for series, times in sorted(seen.items()):
        if series not in planted:
            problems.append(f"report on unplanted series {series} at {times}")
        elif times != [planted[series]]:
            problems.append(
                f"{series}: planted at {planted[series]:g}, reported at {times}"
            )
    for series in sorted(set(planted) - set(seen)):
        problems.append(f"{series}: planted at {planted[series]:g}, never reported")
    return problems


def check_samples(counters: Dict[str, int], stored_points: int,
                  expected: int) -> List[str]:
    """Sample conservation: offered = flushed + quarantined + rejected,
    and every one of the ``expected`` generated samples is stored.

    Args:
        counters: Ingest counters summed over shards (``offered``,
            ``flushed``, ``quality_quarantined``, ``rejected``,
            ``dropped_oldest``, ``pending``, ``quality_buffered``).
        stored_points: Points present in the TSDBs.
        expected: The generator's count of the samples handed over.
    """
    problems = []
    offered = counters["offered"]
    flushed = counters["flushed"]
    quarantined = counters.get("quality_quarantined", 0)
    rejected = counters["rejected"]
    if offered != expected:
        problems.append(f"offered {offered} != generated {expected}")
    if offered != flushed + quarantined + rejected:
        problems.append(
            f"offered {offered} != flushed {flushed} + quarantined {quarantined}"
            f" + rejected {rejected}"
        )
    for key in ("quality_quarantined", "rejected", "dropped_oldest", "pending",
                "quality_buffered"):
        if counters.get(key, 0):
            problems.append(f"{key} = {counters[key]} after the final flush")
    if stored_points != expected:
        problems.append(f"TSDB holds {stored_points} points, expected {expected}")
    return problems


def check_restore(original: dict, restored: dict, realerts: int) -> List[str]:
    """A checkpoint round trip keeps the stats and re-alerts nothing."""
    problems = [
        f"restored {key} = {restored.get(key)!r}, was {value!r}"
        for key, value in original.items()
        if restored.get(key) != value
    ]
    if realerts:
        problems.append(f"follow-up advance after restore delivered {realerts} reports")
    return problems
