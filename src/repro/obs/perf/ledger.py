"""The append-only JSONL performance ledger.

One line per :class:`~repro.obs.perf.record.PerfRecord`, appended as
benchmarks run. JSONL because the failure mode that matters is a
process dying mid-write: every complete line stays readable, and
:meth:`PerfLedger.load` skips (and counts) corrupted lines instead of
losing the history behind them.

The default path is ``benchmarks/results/perf_ledger.jsonl`` relative
to the working directory, overridable with ``REPRO_PERF_LEDGER`` —
the same results directory the benchmark suite archives into, so a
local bench run and ``python -m repro.obs perf`` agree without flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from .record import PerfRecord, PerfSchemaError

__all__ = ["PerfLedger", "LedgerLoad", "default_ledger_path"]

#: Environment override for the ledger location.
LEDGER_ENV = "REPRO_PERF_LEDGER"

_DEFAULT_LEDGER = os.path.join("benchmarks", "results", "perf_ledger.jsonl")


def default_ledger_path() -> Path:
    """``$REPRO_PERF_LEDGER`` or ``benchmarks/results/perf_ledger.jsonl``."""
    return Path(os.environ.get(LEDGER_ENV) or _DEFAULT_LEDGER)


@dataclass
class LedgerLoad:
    """The result of reading a ledger: records plus an honesty count."""

    records: "List[PerfRecord]" = field(default_factory=list)
    skipped: int = 0

    def latest(self, bench: str,
               quick: "Optional[bool]" = None) -> "Optional[PerfRecord]":
        """The most recent record for ``bench``.

        ``quick`` filters on the record's quick flag — comparing a
        quick-mode run against a full-mode baseline (or vice versa)
        would be meaningless, so callers match modes explicitly.
        """
        for record in reversed(self.records):
            if record.bench != bench:
                continue
            if quick is not None and record.quick != quick:
                continue
            return record
        return None


class PerfLedger:
    """Append/load interface over one JSONL ledger file."""

    def __init__(self, path: "Union[str, Path, None]" = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()

    def append(self, record: PerfRecord) -> None:
        """Append one record, creating parent directories as needed."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True, default=float)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def load(self) -> LedgerLoad:
        """Every parseable record, skipping (and counting) corrupt lines.

        A missing ledger file loads as empty — recording simply has not
        happened yet on this checkout.
        """
        load = LedgerLoad()
        if not self.path.exists():
            return load
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    load.records.append(PerfRecord.from_dict(payload))
                except (json.JSONDecodeError, PerfSchemaError):
                    load.skipped += 1
        return load

    def tail(self, limit: int = 20) -> "List[PerfRecord]":
        """The last ``limit`` parseable records."""
        records = self.load().records
        return records[-limit:] if limit > 0 else []
