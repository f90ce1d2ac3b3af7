"""Sweep journal: a JSONL manifest of what a sweep did, and resume state.

A :class:`SweepJournal` is an append-only file of one-JSON-object lines
recording the lifecycle of every spec an executor touched: cache hits,
per-attempt outcomes (``ok | timeout | crash | sim-error``), completions
and quarantines.  It serves three roles:

* **Audit trail.**  After a chaotic or faulty sweep, the journal shows
  exactly which runs were retried, why, and what won.
* **Resume manifest.**  The first line records the CLI argv that produced
  the sweep, so ``repro resume <journal>`` can replay the same command;
  completed specs then short-circuit through the result cache and are
  never re-simulated.
* **Interrupt record.**  A SIGINT'd dispatcher appends an ``interrupted``
  marker after draining, so a journal always ends in a known state.

Writes are single ``write()`` calls of one ``\\n``-terminated line, each
flushed and fsynced -- on POSIX that makes concurrent append-side damage
impossible for lines under the pipe-buffer size, the same "no torn reads"
property the result cache gets from atomic renames.  Line *content* is
deterministic for a given chaos seed; line *order* is completion order,
which may vary across runs of a parallel sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..common.errors import ReproError

#: Journal schema version (bumped on incompatible record changes).
JOURNAL_VERSION = 1


class JournalError(ReproError):
    """The journal file is missing, malformed, or not resumable."""


class SweepJournal:
    """Append-only JSONL sweep manifest, loadable for resume."""

    def __init__(self, path: str | Path, argv: list[str] | None = None):
        self.path = Path(path)
        #: Keys whose results were already obtained (``hit`` or ``done``
        #: records), including those loaded from a pre-existing file.
        self.completed: set[str] = set()
        #: Keys quarantined in this or a previous session.
        self.quarantined: set[str] = set()
        self._fh = None
        self._interrupted = False
        if self.path.exists() and self.path.stat().st_size:
            argv_prev, completed, quarantined = self._scan(self.path)
            self.completed |= completed
            self.quarantined |= quarantined
            self._append({"type": "resume"})
        else:
            self._append({"v": JOURNAL_VERSION, "type": "begin",
                          "argv": list(argv or [])})

    # ------------------------------------------------------------------ #
    # Record writers (one line per event, flushed through to disk)
    # ------------------------------------------------------------------ #
    def _append(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def hit(self, key: str) -> None:
        """A spec's result came straight from the cache."""
        self._append({"type": "hit", "key": key})
        self.completed.add(key)

    def attempt(self, key: str, attempt: int, outcome: str,
                detail: str | None = None) -> None:
        """One execution attempt finished with *outcome* (``ok`` or a
        failure kind from the dispatcher's taxonomy)."""
        record = {"type": "attempt", "key": key, "attempt": attempt,
                  "outcome": outcome}
        if detail:
            record["detail"] = detail
        self._append(record)

    def done(self, key: str, attempts: int) -> None:
        """A spec completed successfully after *attempts* attempts."""
        self._append({"type": "done", "key": key, "attempts": attempts})
        self.completed.add(key)

    def quarantine(self, key: str, attempts: int, last: str) -> None:
        """A spec exhausted its retries; *last* is the final failure
        kind observed."""
        self._append({"type": "quarantined", "key": key,
                      "attempts": attempts, "last": last})
        self.quarantined.add(key)

    def interrupted(self) -> None:
        """The sweep was interrupted (SIGINT) after draining workers.
        Idempotent per session: the dispatcher and the CLI may both
        report the same interrupt."""
        if not self._interrupted:
            self._interrupted = True
            self._append({"type": "interrupted"})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------ #
    # Reading side
    # ------------------------------------------------------------------ #
    @staticmethod
    def _scan(path: Path) -> tuple[list[str] | None, set[str], set[str]]:
        """Parse *path*, returning (argv, completed keys, quarantined)."""
        argv: list[str] | None = None
        completed: set[str] = set()
        quarantined: set[str] = set()
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") \
                from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["type"]
            except (ValueError, TypeError, KeyError) as exc:
                raise JournalError(
                    f"{path}:{lineno}: malformed journal line") from exc
            if kind == "begin":
                argv = record.get("argv")
            elif kind in ("hit", "done"):
                completed.add(record["key"])
            elif kind == "quarantined":
                quarantined.add(record["key"])
        return argv, completed, quarantined

    @classmethod
    def load_argv(cls, path: str | Path) -> list[str]:
        """The recorded CLI argv (for ``repro resume``)."""
        argv, _, _ = cls._scan(Path(path))
        if argv is None:
            raise JournalError(
                f"{path}: no 'begin' record; not a resumable journal")
        return argv

    @classmethod
    def completed_keys(cls, path: str | Path) -> set[str]:
        """Keys recorded as completed (``hit`` or ``done``) in *path*."""
        _, completed, _ = cls._scan(Path(path))
        return completed

    @classmethod
    def records(cls, path: str | Path) -> list[dict]:
        """Every record in *path*, in file order."""
        out = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                out.append(json.loads(line))
        return out
