"""Output checks, computed apart from the service under test.

Every allocation the service pushed is checked against a fresh model
(``cache_size=0``, so no score is shared with the service):

* (a) it is valid for the machine: per-node counts are non-negative
  integers, no node gets more threads than cores, and it names exactly
  the active sessions;
* (b) its reported score equals, exactly, a scalar
  ``NumaPerformanceModel.predict`` of that allocation;
* (c) in full mode it equals a fresh ``ExhaustiveSearch`` answer, and on
  sampled steps the score also equals the scalar (``use_fast=False``)
  exhaustive optimum (:class:`ScalarChecks`);
* (d) in delta mode no score exceeds the exhaustive optimum by more
  than a relative 1e-9 (delta answers can sit one ulp above it).
"""

from __future__ import annotations

#: Relative slack of the delta check and of ``delta.optimal_ratio``.
REL_SLACK = 1e-9


def to_spec(app: tuple):
    """``AppSpec`` of a script application tuple."""
    from repro.core.spec import AppSpec, Placement

    name, ai, placement, home = app
    return AppSpec(
        name=name,
        arithmetic_intensity=ai,
        placement=Placement(placement),
        home_node=home,
    )


class Oracle:
    """Reference answers on a fresh model, memoised per composition."""

    def __init__(self, machine) -> None:
        from repro.core.model import NumaPerformanceModel
        from repro.core.optimizer import ExhaustiveSearch

        self.machine = machine
        self.model = NumaPerformanceModel(cache_size=0, workers=0)
        self._fast = ExhaustiveSearch(self.model)
        self._optimum: dict[tuple, tuple[dict, float]] = {}
        self._scores: dict[tuple, float] = {}

    def score_of(self, apps: tuple, allocation: dict) -> float:
        """Scalar-model total GFLOPS of ``allocation`` on ``apps``."""
        from repro.core.allocation import ThreadAllocation

        key = (apps, tuple(allocation[a[0]] for a in apps))
        if key not in self._scores:
            alloc = ThreadAllocation(
                app_names=tuple(a[0] for a in apps),
                counts=[list(c) for c in key[1]],
            )
            specs = [to_spec(a) for a in apps]
            self._scores[key] = self.model.predict(
                self.machine, specs, alloc
            ).total_gflops
        return self._scores[key]

    def optimum(self, apps: tuple) -> tuple[dict, float]:
        """Batched exhaustive answer: (allocation by name, score)."""
        if apps not in self._optimum:
            result = self._fast.search(self.machine, [to_spec(a) for a in apps])
            allocation = {
                a[0]: tuple(int(x) for x in result.allocation.threads_of(a[0]))
                for a in apps
            }
            self._optimum[apps] = (allocation, result.score)
        return self._optimum[apps]


def scalar_optimum(apps: tuple) -> float:
    """Score of the scalar-path exhaustive search on the model machine."""
    from repro.core.model import NumaPerformanceModel
    from repro.core.optimizer import ExhaustiveSearch
    from repro.machine.presets import model_machine

    search = ExhaustiveSearch(
        NumaPerformanceModel(cache_size=0, workers=0), use_fast=False
    )
    return search.search(model_machine(), [to_spec(a) for a in apps]).score


class ScalarChecks:
    """The scalar half of check (c), run in one helper process.

    The scalar exhaustive search takes about 15 s for ten applications
    here; the helper (this file run as a script) runs it while this
    process does the other checks, after the measured part of the run is
    over.  ``jobs`` maps a label to ``(apps, reported score)``.  The
    helper is a plain subprocess, not a ``multiprocessing`` pool, so no
    semaphore tracker is left behind when the run ends; leaving the
    ``with`` block kills it if its answers were never read.
    """

    def __init__(self, jobs: dict) -> None:
        import os
        import pickle
        import subprocess
        import sys

        from common import ROOT, child_env

        self._jobs = {label: score for label, (apps, score) in jobs.items()}
        self._proc = None
        if not jobs:
            return
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self._proc.stdin.write(
                pickle.dumps([apps for apps, _ in jobs.values()])
            )
            self._proc.stdin.close()
        except BaseException:
            self._stop()
            raise

    def __enter__(self) -> "ScalarChecks":
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
        self._proc = None

    def errors(self) -> list[str]:
        """Failures: reported scores that differ from the scalar optimum."""
        import pickle

        if not self._jobs:
            return []
        data = self._proc.stdout.read()
        code = self._proc.wait()
        self._stop()
        if code != 0:
            return [f"scalar exhaustive helper exited with {code}"]
        out = []
        for (label, score), slow in zip(self._jobs.items(), pickle.loads(data)):
            if score != slow:
                out.append(f"{label}: score {score!r} != scalar exhaustive {slow!r}")
        return out


def check_valid(machine, apps: tuple, allocation: dict) -> list[str]:
    """(a): the allocation fits the machine and names exactly ``apps``."""
    errors = []
    names = [a[0] for a in apps]
    if sorted(allocation) != sorted(names):
        errors.append(
            f"allocation names {sorted(allocation)} != active {sorted(names)}"
        )
        return errors
    cores = machine.cores_per_node
    totals = [0] * len(cores)
    for name, counts in allocation.items():
        if len(counts) != len(cores):
            errors.append(f"{name}: {len(counts)} node counts, machine has {len(cores)}")
            continue
        for node, count in enumerate(counts):
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                errors.append(f"{name}: node {node} count {count!r} is not a count")
                continue
            totals[node] += count
    for node, total in enumerate(totals):
        if total > cores[node]:
            errors.append(f"node {node}: {total} threads on {cores[node]} cores")
    return errors


def check_step(
    oracle: Oracle,
    mode: str,
    apps: tuple,
    allocation: dict,
    score: float,
    *,
    compare_optimum: bool,
) -> tuple[list[str], bool | None]:
    """Checks (a), (b), (d) and the batched half of (c) of one allocation.

    ``compare_optimum`` runs the exhaustive comparison: always in full
    mode, on sampled steps in delta mode.  Returns the failures and,
    when compared, whether the score is within rounding of the optimum
    (the sample behind ``delta.optimal_ratio``).
    """
    errors = check_valid(oracle.machine, apps, allocation)
    if errors:
        return errors, None
    reference = oracle.score_of(apps, allocation)
    if score != reference:
        errors.append(f"score {score!r} != scalar predict {reference!r}")
    optimal = None
    if compare_optimum:
        best_alloc, best = oracle.optimum(apps)
        optimal = score >= best * (1 - REL_SLACK)
        if mode == "full" and allocation != best_alloc:
            errors.append(f"allocation {allocation} != exhaustive {best_alloc}")
        if mode == "full" and score != best:
            errors.append(f"score {score!r} != exhaustive optimum {best!r}")
        if mode == "delta" and score > best * (1 + REL_SLACK):
            errors.append(f"delta score {score!r} above optimum {best!r}")
    return errors, optimal


def _scalar_main() -> int:
    """Helper of :class:`ScalarChecks`: pickled apps lists in, scores out."""
    import pickle
    import sys

    from common import use_source_tree

    use_source_tree()
    jobs = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps([scalar_optimum(apps) for apps in jobs]))
    return 0


if __name__ == "__main__":
    raise SystemExit(_scalar_main())
