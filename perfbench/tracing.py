"""Spans and counters recorded from outside the package.

A ``Tracer`` keeps spans in memory: a name, a start and an end from
``time.perf_counter``, the index of the enclosing span (-1 at top level)
and the restoration ("request") it belongs to.  Spans wrap:

* the denoiser callable (``TracedDenoiser``);
* the operator methods, through subclasses of the operator classes, so the
  solvers' ``isinstance`` dispatch is unchanged;
* the solver and set-up calls, which the benchmark wraps itself;
* the two set-up functions ``bench.synthesize_*`` calls, patched in the
  ``idbp.bench`` namespace while ``instrument`` is active.

``instrument`` also counts the 2-D ``numpy.fft`` transforms.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

import checkout  # noqa: F401  (must precede the idbp imports)
from idbp import bench
from idbp.operators import BlurOperator, InpaintingOperator

FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
SETUP_FUNCTIONS = (
    ("generate_random_mask", "rng.generate_random_mask"),
    ("add_gaussian_noise", "grid.add_gaussian_noise"),
)


@dataclass
class Span:
    name: str
    parent: int
    request: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fft_calls = 0
        self.request = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._open[-1] if self._open else -1, self.request, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def trace_operator(self, operator):
        """Turn `operator` into its traced subclass in place and return it.

        Re-classing keeps every array the operator holds, so the traced
        instance computes bit-identical results and its construction adds no
        transform to the FFT count.
        """
        operator.__class__ = _TRACED_OPERATORS[type(operator)]
        operator.tracer = self
        return operator

    def trace_denoiser(self, denoiser) -> "TracedDenoiser":
        return TracedDenoiser(denoiser, self)

    @contextmanager
    def instrument(self):
        """Count 2-D FFTs and span the set-up helpers while the block runs."""
        with ExitStack() as stack:
            for attr in FFT_2D:
                stack.enter_context(_patched(np.fft, attr, self._counted(getattr(np.fft, attr))))
            for attr, name in SETUP_FUNCTIONS:
                stack.enter_context(_patched(bench, attr, self._spanned(getattr(bench, attr), name)))
            yield self

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, fn, name: str):
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def records(self) -> list[list]:
        """Spans as JSON-ready rows: name, parent, request, start, end."""
        return [[s.name, s.parent, s.request, s.start, s.end] for s in self.spans]


@contextmanager
def _patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class TracedDenoiser:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.tracer = tracer
        self._name = f"denoisers.{inner.kind}"

    def __call__(self, z, sigma: float):
        with self.tracer.span(self._name):
            return self.inner(z, sigma)


class _TracedMethods:
    """Operator methods wrapped in spans; mixed in ahead of an operator class."""

    tracer: Tracer

    def forward(self, x):
        with self.tracer.span("operators.forward"):
            return super().forward(x)

    def pseudoinverse(self, y):
        with self.tracer.span("operators.pseudoinverse"):
            return super().pseudoinverse(y)

    def project_null(self, x):
        with self.tracer.span("operators.project_null"):
            return super().project_null(x)


class TracedInpaintingOperator(_TracedMethods, InpaintingOperator):
    pass


class TracedBlurOperator(_TracedMethods, BlurOperator):
    def with_epsilon(self, epsilon: float) -> "TracedBlurOperator":
        with self.tracer.span("operators.with_epsilon"):
            return self.tracer.trace_operator(super().with_epsilon(epsilon))


_TRACED_OPERATORS = {
    InpaintingOperator: TracedInpaintingOperator,
    BlurOperator: TracedBlurOperator,
}
