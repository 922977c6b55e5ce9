"""shard-safety: per-user state is reached through the shard router only.

A user's rows live on the shard their crc32 ``shard_of`` names
(``docs/ARCHITECTURE.md``, "Sharding") because every per-user read/write
routes through ``ShardedDatabase.table_for``/``for_key`` and fan-out
reads go through the sanctioned ``tables()`` / ``page_by_index`` merges.
Code in the per-user-store packages that grabs a sibling shard's
``Database`` directly — ``.shard(i)`` with an unrouted index, or
subscripting the raw ``databases``/``_dbs`` list — bypasses the router
and can put a user's rows on a shard that does not own them, where shard
snapshots, moves and routed reads never look.

Allowed without routing evidence:

* ``__init__`` bodies — construction enumerates every shard to build
  per-shard structures;
* snapshot/restore/replay-family methods — layout-level operations
  (rebalancing, shard moves, WAL replay) legitimately address shards by
  index;
* index expressions that carry routing evidence: a call to ``shard_of``
  (module function or method) or an identifier whose name mentions
  ``shard`` (the routed index a caller computed via ``shard_of``).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Finding, Rule

#: Packages holding per-user stores (relpath directory components).
SCOPED_DIRS = ("users/", "spatialdb/", "streaming/")

#: Method-name fragments whose scopes may address shards by index.
_LAYOUT_METHODS = ("__init__", "snapshot", "restore", "replay", "rebalance")

#: Subscripted attributes that expose raw per-shard databases.
_RAW_DB_BASES = ("databases", "_dbs")


def _in_scope(relpath: str) -> bool:
    parts = relpath.split("/")
    return any(
        "/".join(parts[i:]).startswith(prefix)
        for prefix in SCOPED_DIRS
        for i in range(len(parts))
    )


def _layout_scope(scope: str) -> bool:
    method = scope.rsplit(".", 1)[-1]
    return any(fragment in method for fragment in _LAYOUT_METHODS)


def _routed(index_names, index_calls) -> bool:
    if any("shard" in name.lower() for name in index_names):
        return True
    return any("shard_of" in callee for callee in index_calls)


def check(project) -> Iterator[Finding]:
    for module in project.modules:
        if not _in_scope(module.relpath):
            continue
        for call in module.calls:
            if call.callee.split(".")[-1] != "shard" or call.num_args != 1:
                continue
            if _layout_scope(call.scope):
                continue
            # Routing evidence in the single argument: literal never routes;
            # an expression was captured as NON_LITERAL — inspect the raw
            # subscripts/calls recorded at the same line for shard_of use.
            evidence = [
                subscript
                for subscript in module.subscripts
                if subscript.line == call.line
            ]
            routed = any(
                _routed(subscript.index_names, subscript.index_calls)
                for subscript in evidence
            )
            nested = any(
                other.line == call.line and "shard_of" in other.callee
                for other in module.calls
            )
            if routed or nested:
                continue
            yield RULE.finding(
                path=module.relpath,
                line=call.line,
                message=(
                    f"{call.callee}(...) in {call.scope} addresses a shard "
                    f"directly outside construction/snapshot/restore — route "
                    f"through table_for()/for_key() (crc32 shard_of) instead "
                    f"of reaching into a sibling shard's Database"
                ),
                key=f"shard-call:{call.scope}",
            )
        for subscript in module.subscripts:
            base_tail = subscript.base.split(".")[-1]
            if base_tail not in _RAW_DB_BASES:
                continue
            if _layout_scope(subscript.scope):
                continue
            if _routed(subscript.index_names, subscript.index_calls):
                continue
            yield RULE.finding(
                path=module.relpath,
                line=subscript.line,
                message=(
                    f"{subscript.base}[...] in {subscript.scope} indexes the "
                    f"raw per-shard database list without shard_of routing — "
                    f"use table_for()/for_key() or pass a routed shard index"
                ),
                key=f"raw-dbs:{subscript.scope}",
            )


RULE = Rule(
    name="shard-safety",
    severity=SEVERITY_ERROR,
    summary=(
        "per-user stores reach tables via ShardedDatabase routing, never a "
        "sibling shard's Database directly"
    ),
    check=check,
)
