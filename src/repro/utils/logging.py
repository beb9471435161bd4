"""Logging helpers.

All modules obtain loggers through :func:`get_logger`, which namespaces
them under ``repro`` so applications can configure the whole library at
once.  :func:`configure` installs one stderr handler with either the
human-readable text format or a JSON-lines format (``fmt="json"``) for
log shippers; the level defaults to the ``REPRO_LOG_LEVEL`` environment
variable (a name like ``DEBUG`` or a numeric level) and falls back to
``INFO``.

When a log record is emitted inside an open trace span
(:mod:`repro.obs.trace`), the span's ``request_id`` is attached to the
record -- the text format appends ``rid=<id>``, the JSON format adds a
``request_id`` field -- so one grep follows a request through the access
log, the engine and the slow-query log.
"""

from __future__ import annotations

import json
import logging
import os
import sys

_CONFIGURED = False
_TEXT_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def get_logger(name: str) -> logging.Logger:
    """Return a logger namespaced under ``repro``."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


class _RequestIdFilter(logging.Filter):
    """Stamp the current trace span's request id onto every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        # imported lazily so the logging module never forces obs to load
        from repro.obs.trace import current_request_id

        record.request_id = current_request_id()
        return True


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is
    emitted, so a stream swapped after :func:`configure` (and perhaps
    closed, as a test's captured stderr is) is never written to."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value):
        pass


class _TextFormatter(logging.Formatter):
    """The classic text format, with ``rid=<id>`` inside a span."""

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        request_id = getattr(record, "request_id", None)
        return f"{base} rid={request_id}" if request_id else base


class JsonFormatter(logging.Formatter):
    """One JSON object per line (for log shippers and tests)."""

    def format(self, record: logging.LogRecord) -> str:
        entry = {
            "ts": self.formatTime(record),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        request_id = getattr(record, "request_id", None)
        if request_id:
            entry["request_id"] = request_id
        if record.exc_info:
            entry["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(entry, sort_keys=True)


def _level_from_env(default: int = logging.INFO) -> int:
    """``REPRO_LOG_LEVEL`` as a level number (name or digits), or default."""
    raw = os.environ.get("REPRO_LOG_LEVEL", "").strip()
    if not raw:
        return default
    if raw.isdigit():
        return int(raw)
    value = logging.getLevelName(raw.upper())
    return value if isinstance(value, int) else default


def configure(
    level: int = None, fmt: str = "text", force: bool = False
) -> None:
    """Install a stderr handler once (idempotent unless ``force``).

    ``level=None`` reads ``REPRO_LOG_LEVEL`` (falling back to ``INFO``);
    ``fmt`` is ``"text"`` or ``"json"``.  ``force=True`` replaces the
    previously installed handler, so a long-lived process can switch
    format.
    """
    global _CONFIGURED
    if _CONFIGURED and not force:
        return
    if fmt not in ("text", "json"):
        raise ValueError(f"fmt must be 'text' or 'json', got {fmt!r}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = _StderrHandler()
    handler.setFormatter(
        JsonFormatter() if fmt == "json" else _TextFormatter(_TEXT_FORMAT)
    )
    handler.addFilter(_RequestIdFilter())
    root.addHandler(handler)
    root.setLevel(_level_from_env() if level is None else level)
    _CONFIGURED = True
