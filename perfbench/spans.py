"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces public functions of ``anglepath`` with wrappers
that record a span (name, start, end, parent) and ``uninstall`` puts the
originals back, so untraced passes run the program untouched. Spans stay in
memory until the run ends. ``Search.expand`` gets no span per call: its time
and its dead ends (expansions that generate nothing) are summed per search.

Every ``run_instance`` call leaves one summary of its search. In a worker
process forked by ``run_batch`` the summary cannot reach the parent's
memory, so it is appended to ``worker-<pid>.jsonl`` in ``spool_dir``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from anglepath import cli, harness, planner

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.summaries: list[dict] = []
        self.spool_dir: Path | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._search_acc: list | None = None  # [expand seconds, dead ends]
        self._last_search: dict = {}
        self._owner_pid = os.getpid()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = perf()
        self._stack.pop()
        return span[2] - span[1]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def install(self) -> None:
        for owner, attr, name in (
            (harness, "load_map", "grids.load_map"),
            (cli, "load_scen", "grids.load_scen"),
            (cli, "run_batch", "harness.run_batch"),
            (cli, "aggregate", "harness.aggregate"),
            (cli, "emit_report", "harness.emit_report"),
            (cli, "write_records", "harness.write_records"),
            (harness, "aggregate", "harness.aggregate"),
            (harness, "write_records", "harness.write_records"),
            (harness, "search", "planner.search"),
        ):
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        self._patch(harness, "run_instance", self._run_instance_wrapper(harness.run_instance))
        self._patch(planner.Search, "run", self._run_wrapper(planner.Search.run))
        self._patch(planner.Search, "expand", self._expand_wrapper(planner.Search.expand))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _run_instance_wrapper(self, func):
        @functools.wraps(func)
        def run_instance(grid, instance, cfg):
            index = self.open("harness.run_instance")
            try:
                record = func(grid, instance, cfg)
            finally:
                elapsed = self.close(index)
            summary = dict(self._last_search, instance_s=elapsed, runtime_s=record.runtime_s)
            if os.getpid() == self._owner_pid:
                self.summaries.append(summary)
            else:
                spool = self.spool_dir / f"worker-{os.getpid()}.jsonl"
                with open(spool, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(summary) + "\n")
            return record

        return run_instance

    def _run_wrapper(self, func):
        @functools.wraps(func)
        def run(search):
            index = self.open("planner.Search.run")
            acc = self._search_acc = [0.0, 0]
            try:
                outcome = func(search)
            finally:
                elapsed = self.close(index)
                self._search_acc = None
            stats = search.stats
            self._last_search = {
                "run_s": elapsed,
                "expand_s": acc[0],
                "dead_ends": acc[1],
                "expansions": stats.expansions,
                "generated": stats.generated,
                "reinsertions": stats.reinsertions,
                "max_open": stats.max_open,
            }
            return outcome

        return run

    def _expand_wrapper(self, func):
        @functools.wraps(func)
        def expand(search, node):
            stats = search.stats
            generated = stats.generated
            t0 = perf()
            func(search, node)
            acc = self._search_acc
            if acc is not None:
                acc[0] += perf() - t0
                if stats.generated == generated:
                    acc[1] += 1

        return expand

    def read_spool(self) -> list[dict]:
        """Summaries written by worker processes since the last call."""
        summaries = []
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                summaries.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return summaries

    def dump(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(rows))
