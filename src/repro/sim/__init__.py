"""Discrete-event simulation kernel."""

from .component import Component
from .engine import Engine
from .trace import (DEFAULT_CAPACITY, NULL_TRACER, ListTracer, RingTracer,
                    TraceEvent, Tracer)

__all__ = ["Component", "Engine", "NULL_TRACER", "ListTracer", "RingTracer",
           "TraceEvent", "Tracer", "DEFAULT_CAPACITY"]
