"""serial-dispatch: the program starts no threads and no processes.

Every request, multi-shard tracking batches included, runs on the
caller's thread: shards partition state, not execution.  Threads lose
under the GIL — the shard work is CPU-bound Python, so a worker per shard
never overlapped anything and only added handoff cost (and made commit
order, hence the WAL's bytes, depend on thread scheduling).
Process-per-shard parallelism waits until a CPU-only request-path
breakdown shows shard work dominant (ROADMAP, "Deferred").

The rule flags every construction of an execution unit:

* ``threading.Thread``, ``threading.Timer`` and
  ``_thread.start_new_thread``;
* ``concurrent.futures.ThreadPoolExecutor`` and ``ProcessPoolExecutor``;
* ``multiprocessing`` pools and processes (``Pool``, ``Process``,
  ``multiprocessing.pool.ThreadPool``, ``multiprocessing.dummy.Pool``).

Locks, thread-locals and ``threading.get_ident`` stay allowed: they make
a component safe for callers that bring their own threads, without the
program starting any.  A deliberate exception carries
``# repro: allow[serial-dispatch] reason``.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding, Rule

#: Import-resolved constructors of threads, processes and their pools.
_CONSTRUCTORS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "_thread.start_new_thread",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.Process",
        "multiprocessing.pool.Pool",
        "multiprocessing.pool.ThreadPool",
        "multiprocessing.dummy.Pool",
        "multiprocessing.dummy.Process",
    }
)


def check(project) -> Iterator[Finding]:
    for module in project.modules:
        for call in module.calls:
            qualified = call.qualified
            if qualified not in _CONSTRUCTORS:
                continue
            yield RULE.finding(
                path=module.relpath,
                line=call.line,
                message=(
                    f"{qualified}() in {call.scope} starts a thread or process — "
                    f"shard work runs serially on the caller's thread"
                ),
                key=f"{qualified}@{call.scope}",
            )


RULE = Rule(
    name="serial-dispatch",
    severity=SEVERITY_ERROR,
    summary=(
        "no threads, thread pools, processes or process pools are started "
        "under the analyzed tree"
    ),
    check=check,
)
