"""Open-loop request arrival processes.

A :class:`Request` is one inference candidate batch of size 1: a user
context needing scores.  Arrival processes generate timestamped requests
whose sparse features follow the dataset's per-field distributions, so the
cache sees realistic locality under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, is_, itemgetter
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..workloads.spec import DatasetSpec
from ..workloads.zipf import ZipfSampler

#: Most requests :meth:`PoissonArrivals.generate_until` draws.
MAX_REQUESTS = 1_000_000


@dataclass(frozen=True, eq=False)
class Request:
    """One inference request.

    Requests compare and hash by identity: two requests with the same
    ids are still two requests (and arrays have no truth value to
    compare by).
    """

    request_id: int
    arrival_time: float
    #: per-table feature IDs (``ids_per_field`` each): a tuple of id
    #: arrays, or — for a request with a ``source`` — the ``(tables,
    #: ids)`` row of its cube, which indexes, iterates and has a ``len``
    #: the same way.
    feature_ids: tuple
    #: optional handle ``(cube, row)``: the source stream's ``(count,
    #: tables, ids)`` id array plus this request's row in it.  Batch
    #: assembly gathers whole batches from the cube in one indexing op,
    #: and ``feature_ids`` is the row itself, one view instead of one
    #: per table.  ``repr`` ignores it.
    source: tuple = field(default=None, repr=False)

    def __post_init__(self):
        ids, source = self.feature_ids, self.source
        # A tuple of views of the source cube becomes the one row view.
        if source is not None and type(ids) is tuple and ids:
            cube, row = source
            if isinstance(ids[0], np.ndarray) and ids[0].base is cube:
                object.__setattr__(self, "feature_ids", cube[row])


class RequestColumns(NamedTuple):
    """A request list read once, as columns (see :func:`request_columns`)."""

    arrivals: np.ndarray
    request_ids: np.ndarray
    #: The ``(count, tables, ids)`` cube every request has a row of, or
    #: ``None`` when they do not all share one.
    cube: Optional[np.ndarray]
    #: Each request's row in ``cube`` (``None`` with it).
    rows: Optional[np.ndarray]


class RequestStream(list):
    """A request list that carries its own :class:`RequestColumns`, so
    serving it reads nothing per request (a cluster router hands its
    replicas sub-streams of a list it has already read).  Its
    ``arrivals`` column is when each request reaches the server that
    serves the stream: for a router's re-sent copy, the send instant,
    not the request's own ``arrival_time``."""

    __slots__ = ("columns",)

    def __init__(self, requests, arrivals, request_ids, cube, rows):
        super().__init__(requests)
        self.columns = RequestColumns(arrivals, request_ids, cube, rows)

    def take(self, index: np.ndarray, arrivals: np.ndarray) -> "RequestStream":
        """Requests ``index`` (in that order), arriving at ``arrivals``."""
        columns = self.columns
        return RequestStream(
            map(self.__getitem__, index.tolist()), arrivals,
            columns.request_ids[index], columns.cube,
            None if columns.rows is None else columns.rows[index],
        )


_ARRIVAL = attrgetter("arrival_time")
_REQUEST_ID = attrgetter("request_id")
_SOURCE = attrgetter("source")


# hot-path: vectorized
def request_columns(requests: Sequence[Request]) -> RequestColumns:
    """Arrival times, request ids and cube rows of ``requests``, read
    once (C-level attribute maps, no Python frame per request) so a
    serving run slices arrays rather than walking requests again."""
    if type(requests) is RequestStream:
        return requests.columns
    n = len(requests)
    arrivals = np.fromiter(map(_ARRIVAL, requests), np.float64, count=n)
    request_ids = np.fromiter(map(_REQUEST_ID, requests), np.int64, count=n)
    cube = rows = None
    sources = list(map(_SOURCE, requests))
    if n and None not in sources:
        cubes = list(map(itemgetter(0), sources))
        if cubes[0].ndim == 3 and all(map(is_, cubes, repeat(cubes[0]))):
            cube = cubes[0]
            rows = np.fromiter(map(itemgetter(1), sources), np.intp, count=n)
    return RequestColumns(arrivals, request_ids, cube, rows)


class _FeatureSource:
    """Draws per-request sparse features from the dataset's fields."""

    def __init__(self, dataset: DatasetSpec, seed: int):
        self.dataset = dataset
        self._samplers = [
            ZipfSampler(f.corpus_size, f.alpha, seed=seed * 31 + i)
            for i, f in enumerate(dataset.fields)
        ]

    def draw_batch(self, count: int) -> np.ndarray:
        """The ``(count, tables, k)`` id cube of ``count`` requests, in
        one pass.

        Each sampler draws ``count * k`` ids in a single vectorised call
        — bit-identical to ``count`` sequential ``k``-draws from the same
        generator.  Each request's ``feature_ids`` is its row view of the
        cube, and the cube itself rides along on each :class:`Request`
        (via ``source``) so batch assembly can gather ids without
        per-request re-stacking.
        """
        k = self.dataset.ids_per_field
        cols = [s.sample(count * k).reshape(count, k) for s in self._samplers]
        return np.stack(cols, axis=1)


class PoissonArrivals:
    """Memoryless arrivals at a configured rate (requests/second)."""

    def __init__(self, dataset: DatasetSpec, rate: float, seed: int = 0):
        if rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._features = _FeatureSource(dataset, seed)

    def generate(self, count: int) -> List[Request]:
        """The first ``count`` requests of the process."""
        if count <= 0:
            raise WorkloadError("count must be positive")
        gaps = self._rng.exponential(1.0 / self.rate, size=count)
        times = np.cumsum(gaps).tolist()
        cube = self._features.draw_batch(count)
        return [
            Request(i, times[i], cube[i], source=(cube, i))
            for i in range(count)
        ]

    def generate_until(self, horizon: float) -> List[Request]:
        """All requests arriving before ``horizon`` seconds.

        Unlike :meth:`generate`, the run's span is known up front, which
        lets fault schedules place outage windows covering an exact
        fraction of the run (at most :data:`MAX_REQUESTS`, a runaway
        guard).
        """
        if horizon <= 0:
            raise WorkloadError("horizon must be positive")
        # Gap draws stay sequential (the arrival count is unknown up
        # front and over-drawing would advance the RNG differently);
        # feature draws batch once the times are known.
        times: List[float] = []
        now = 0.0
        while len(times) < MAX_REQUESTS:
            now += float(self._rng.exponential(1.0 / self.rate))
            if now >= horizon:
                break
            times.append(now)
        if not times:
            raise WorkloadError("horizon too short: no arrivals")
        cube = self._features.draw_batch(len(times))
        return [
            Request(i, times[i], cube[i], source=(cube, i))
            for i in range(len(times))
        ]
