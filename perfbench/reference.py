"""A fixed reference task, timed next to every job to read the host's speed.

The benchmark runs on shared hosts whose speed swings by a factor of 1.5 or
more over seconds to minutes, with the CPU fully given to the benchmark and
no steal time: a fixed pure-Python loop ran at 76 to 117 iterations a second
over 4-second windows, and the medians of whole 40-second runs moved by a
third from one minute to the next. Such a swing slows the reference task
and the job next to it alike, so the ratio of the two holds still.

The task mixes what treemrf spends its time on: breadth-first searches over
Python lists, tiny numpy operations and a dict build. It never calls
treemrf, so no change to the program under test can change it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

import trees

# What the task takes at the reference speed: the seconds of one run made
# between two jobs, at the fast end of a shared 2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11, numpy 2.4. A job's time at the reference speed is its
# measured time times REF_SECONDS over the task's mean run around it. The
# value sets the scale only; it is fixed, so runs compare.
REF_SECONDS = 0.009

# Around a job, the task runs for this share of the job's time on each side
# (at least once). One 9 ms run reads the speed of a moment, and the host's
# speed moves within a second; a long job needs the mean of a longer span.
SPAN_SHARE = 0.05

_ADJ = trees.adjacency(300, trees.random_recursive_edges(300, random.Random("reference")))


def _task() -> int:
    far = 0
    for v in range(1, 91):
        far += max(trees.bfs_dist(_ADJ, v))
    a = np.ones(40)
    for _ in range(2000):
        a = a * 0.5 + 1.0
    table = {i: i * i for i in range(3000)}
    return far + len(table) + int(a[0])


def reading(span: float = 0.0) -> tuple[float, int]:
    """Runs of the reference task for `span` seconds, at least one: their
    total seconds and their number.

    The cyclic collector is off meanwhile, so that collecting the garbage of
    the job before does not count as the host being slow.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        total, runs = 0.0, 0
        while runs == 0 or total < span:
            t0 = time.perf_counter()
            _task()
            total += time.perf_counter() - t0
            runs += 1
        return total, runs
    finally:
        if was_on:
            gc.enable()


def speed_scale(before: tuple[float, int], after: tuple[float, int]) -> float:
    """Factor that turns a time measured between two readings into the time
    at the reference speed: REF_SECONDS over the mean run of both."""
    return REF_SECONDS * (before[1] + after[1]) / (before[0] + after[0])
