"""The ``repro``-namespaced logging hierarchy.

Every package logs under a child of the ``repro`` root logger —
``repro.runtime``, ``repro.sim``, ``repro.spec``, ``repro.analysis`` —
so one knob controls the whole library and host applications can route
or silence it like any well-behaved dependency.  The library itself
never calls :func:`logging.basicConfig`; it only emits.  The CLI's
``--log-level`` flag calls :func:`configure_logging` to attach a
stderr handler; embedders configure the ``repro`` logger however their
application does.
"""

from __future__ import annotations

import logging

#: Valid ``--log-level`` choices, in increasing severity.
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """The logger for a repro subsystem (``get_logger("runtime")``).

    Accepts either the bare subsystem name or an already-qualified
    ``repro.*`` dotted path.
    """
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure_logging(
    level: str = "warning", stream=None
) -> logging.Logger:
    """Attach a stream handler to the ``repro`` root logger.

    Idempotent: reconfiguring replaces the handler installed by a
    previous call instead of stacking duplicates (repeated CLI
    invocations in one process, tests).  Returns the ``repro`` logger.
    """
    level = str(level).lower()
    if level not in LOG_LEVELS:
        raise ValueError(
            f"log level must be one of {LOG_LEVELS}, got {level!r}"
        )
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler._repro_cli_handler = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    # Do not leak records to the root logger's handlers on top of ours.
    logger.propagate = False
    return logger

