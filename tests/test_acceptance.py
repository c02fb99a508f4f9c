"""The fourteen acceptance criteria, one test each, at their stated budgets,
and the pooled runner that criteria 1, 2, 3 and 11 share.

Each criterion runs once per session at seed 42 (the ``criterion_report``
fixture); the pinned selftest digests in ``tests/test_cli.py`` render the
same reports.  Run with `pytest tests/test_acceptance.py -v -s` (or
`ncx selftest`) to see one pass/fail line per criterion."""

import concurrent.futures
import os
import random

import pytest

from ncomplex import acceptance


def _check(report):
    print()
    print(report.line())
    assert report.ok, report.witness or report.details
    assert report.elapsed < report.budget, (
        f"criterion {report.number} exceeded its {report.budget}s budget"
    )


def test_criterion_01_proposition4(criterion_report):
    _check(criterion_report(1))


def test_criterion_02_lemma1_hexagons(criterion_report):
    _check(criterion_report(2))


def test_criterion_03_proposition3_ses(criterion_report):
    _check(criterion_report(3))


def test_criterion_04_lemma5_theorem2(criterion_report):
    _check(criterion_report(4))


def test_criterion_05_proposition7(criterion_report):
    _check(criterion_report(5))


def test_criterion_06_matrix_algebra(criterion_report):
    _check(criterion_report(6))


def test_criterion_07_theorem3_poincare(criterion_report):
    _check(criterion_report(7))


def test_criterion_08_spin_sequences(criterion_report):
    _check(criterion_report(8))


def test_criterion_09_potential_solver(criterion_report):
    _check(criterion_report(9))


def test_criterion_10_brs_theorem4(criterion_report):
    _check(criterion_report(10))


def test_criterion_11_theorem5(criterion_report):
    _check(criterion_report(11))


def test_criterion_12_lemma15_theorem6(criterion_report):
    _check(criterion_report(12))


def test_criterion_13_spin_examples(criterion_report):
    _check(criterion_report(13))


def test_criterion_14_q_combinatorics(criterion_report):
    _check(criterion_report(14))


def _first_draw(rng):
    """Fails every instance; the witness is the first draw of its generator
    and the id of the process that ran it."""
    return [rng.random(), os.getpid()]


def _draws(seed, tag, count):
    return [random.Random(f"{seed}:{tag}:{i}").random() for i in range(count)]


def test_serial_failures_are_witnesses_in_index_order():
    """Each instance draws from its own seed string, and the witnesses of
    the failing ones come back in index order."""
    seen = []

    def every_other_fails(rng, scale):
        seen.append(rng.random())
        return seen[-1] * scale if len(seen) % 2 == 0 else None

    witnesses = acceptance.pooled_witnesses(every_other_fails, "t", 7, 9, 2)
    draws = _draws(7, "t", 9)
    assert seen == draws
    assert witnesses == [2 * d for d in draws[1::2]]


def test_pool_matches_serial(monkeypatch):
    """NCX_THREADS=2 runs the instances on two processes and gives the
    serial result."""
    serial = acceptance.pooled_witnesses(acceptance._prop4_worker, "prop4", 42, 8)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("NCX_THREADS", "2")
    pooled = acceptance.pooled_witnesses(acceptance._prop4_worker, "prop4", 42, 8)
    assert pooled == serial == []


def test_pool_keeps_index_order(monkeypatch):
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("NCX_THREADS", "2")
    witnesses = acceptance.pooled_witnesses(_first_draw, "t", 7, 8)
    assert [draw for draw, _ in witnesses] == _draws(7, "t", 8)
    assert os.getpid() not in {pid for _, pid in witnesses}


@pytest.mark.parametrize("affinity", [True, False])
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, affinity):
    """A huge NCX_THREADS asks for no more workers than the CPUs this
    process may use (the affinity mask, else the CPU count).  The executor
    is a fake that records its size and runs the jobs inline, so no process
    starts."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("NCX_THREADS", "100000")
    witnesses = acceptance.pooled_witnesses(_first_draw, "t", 7, 500)
    assert sizes == [3]
    assert [draw for draw, _ in witnesses] == _draws(7, "t", 500)
