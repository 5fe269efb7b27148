"""In-memory spans around the benchmark's calls into dsmsolve, and counts of
decompositions and solves taken at the numpy/scipy boundary.

Spans are opened by the benchmark itself, never inside the package. While a
``Tracer`` is active it replaces the public numpy and scipy decomposition and
solve entry points with counting wrappers, so a call the package makes through
``np.linalg.cholesky`` or ``scipy.linalg.cho_solve`` is counted against the
innermost open span. Calls bound to a name before the tracer started (``from
scipy.linalg import cho_solve``) are not seen.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext

import numpy.linalg
import scipy.linalg

FACTORIZATIONS = {
    numpy.linalg: ("cholesky", "eigh", "eigvalsh", "svd", "qr", "solve", "lstsq"),
    scipy.linalg: ("cholesky", "cho_factor", "eigh", "eigvalsh", "svd", "qr",
                   "lu", "lu_factor", "solve", "lstsq"),
}
TRI_SOLVES = {
    scipy.linalg: ("cho_solve", "solve_triangular", "lu_solve"),
}

COUNTERS = ("factorizations", "factor_ms", "tri_solves", "tri_solve_ms")


class Tracer:
    """Records spans (name, task, parent, start, end) and boundary counts.

    Use as a context manager: entering installs the counting wrappers,
    leaving restores the original functions.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._in_boundary = False
        self._saved: list[tuple[object, str, object]] = []
        self.task = -1

    def __enter__(self) -> "Tracer":
        for table, kind in ((FACTORIZATIONS, "factor"), (TRI_SOLVES, "tri_solve")):
            for module, names in table.items():
                for name in names:
                    original = getattr(module, name)
                    self._saved.append((module, name, original))
                    setattr(module, name, self._counting(original, kind))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _counting(self, original, kind: str):
        count_key = "factorizations" if kind == "factor" else "tri_solves"
        ms_key = f"{kind}_ms"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # Count only the outermost entry point, and only inside a span.
            if self._in_boundary or not self._open:
                return original(*args, **kwargs)
            self._in_boundary = True
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed_ms = (time.perf_counter() - started) * 1e3
                self._in_boundary = False
                record = self._open[-1]
                record[count_key] += 1
                record[ms_key] += elapsed_ms

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields its record."""
        parent = self._open[-1]["id"] if self._open else None
        record = {"id": len(self.spans), "name": name, "task": self.task, "parent": parent,
                  **{key: 0 for key in COUNTERS}}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if self._open:
                outer = self._open[-1]
                for key in COUNTERS:
                    outer[key] += record[key]


_NO_SPAN = nullcontext()


def no_span(name: str):
    """The untraced stand-in for ``Tracer.span``."""
    return _NO_SPAN
