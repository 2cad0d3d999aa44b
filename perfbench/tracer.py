"""In-memory spans around the benchmark's calls into coindice.

A span records a name, a start, an end, its parent span and the request
that caused it.  Bits drawn through a ``TimedSource`` are charged to the
innermost open span, so a layer's self time is its duration minus its
child spans minus the bit-supply time spent inside it.  Nothing here
touches the program: spans sit around calls the benchmark makes.
"""

import gzip
from time import perf_counter

# indices into a span record
NAME, START, END, PARENT, REQ, BITS, BITS_S = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.req = -1

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.req, 0, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        try:
            return fn(*args)
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_bits(self, elapsed: float) -> None:
        self.count("bitsource.bits")
        self.count("bitsource.self_s", elapsed)
        if self._stack:
            record = self.spans[self._stack[-1]]
            record[BITS] += 1
            record[BITS_S] += elapsed

    def self_times(self) -> list[float]:
        """Duration of each span minus its children and its bit-supply time."""
        own = [s[END] - s[START] - s[BITS_S] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def bits_within(self) -> list[int]:
        """Bits drawn inside each span, its descendants included."""
        bits = [s[BITS] for s in self.spans]
        # children are appended after their parent, so a reverse sweep
        # has every child's total ready before its parent needs it
        for index in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[index][PARENT]
            if parent >= 0:
                bits[parent] += bits[index]
        return bits

    def write(self, path) -> None:
        """Every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\treq\tbits\tbits_s\n")
            for index, s in enumerate(self.spans):
                out.write(f"{index}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}"
                          f"\t{s[REQ]}\t{s[BITS]}\t{s[BITS_S]!r}\n")


def timed_source_class(bitsource_cls):
    """A BitSource subclass that delegates every draw to an inner source
    and times it; built per import of coindice, whose BitSource it extends."""

    class TimedSource(bitsource_cls):
        def __init__(self, inner, tracer: Tracer) -> None:
            super().__init__()
            self._inner = inner
            self._tracer = tracer

        def _draw(self):
            start = perf_counter()
            bit = self._inner.next_bit()
            self._tracer.add_bits(perf_counter() - start)
            return bit

    return TimedSource
