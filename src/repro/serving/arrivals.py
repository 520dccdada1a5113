"""Open-loop request arrival processes.

A :class:`Request` is one inference candidate batch of size 1: a user
context needing scores.  Arrival processes generate timestamped requests
whose sparse features follow the dataset's per-field distributions, so the
cache sees realistic locality under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, is_
from typing import List, NamedTuple, Sequence

import numpy as np

from ..errors import WorkloadError
from ..workloads.spec import DatasetSpec
from ..workloads.zipf import ZipfSampler

#: Most requests :meth:`PoissonArrivals.generate_until` draws.
MAX_REQUESTS = 1_000_000


#: Stores a slot of a frozen :class:`Request` (its ``__setattr__`` refuses).
_set = object.__setattr__


def _is_row(ids, view: np.ndarray) -> bool:
    """Whether ``ids`` are the ids of cube row ``view``: an array of its
    shape, or one array a table, holding its bytes.  Bytes rather than
    buffer offsets: numpy builds a dict to report a view's offset
    (~3 us), which a 12-table request would pay 12 times."""
    if type(ids) is tuple:
        if len(ids) != len(view):
            return False
    elif type(ids) is not np.ndarray or ids.shape != view.shape:
        return False
    else:
        ids = (ids,)
    try:
        return b"".join(ids) == view.tobytes()
    except TypeError:  # not arrays, or arrays not contiguous
        if not all(type(table) is np.ndarray for table in ids):
            return False
        return b"".join(map(np.ascontiguousarray, ids)) == view.tobytes()


def _one_row_cube(feature_ids) -> np.ndarray:
    """``feature_ids`` (one equal-length id array a table) as the
    ``(1, tables, ids)`` ``uint64`` cube of one request."""
    try:
        ids = np.array(feature_ids, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        ids = None
    if ids is not None and ids.shape == (0,):
        ids = ids.reshape(0, 0)  # no tables
    if ids is None or ids.ndim != 2:
        raise WorkloadError(
            "a request's ids are one equal-length id array a table"
        )
    return ids[np.newaxis]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Request:
    """One inference request: its id, its arrival time and a row of an id
    cube (``cube`` and ``row``); the slots store nothing per request
    beyond that.

    With a ``source``, ``feature_ids`` is ``None`` or that row's ids (the
    row array, as ``dataclasses.replace`` passes back, or a tuple of its
    per-table arrays: the row's shape and bytes); any other ids are
    refused.  Without one, ``feature_ids`` (one equal-length id array a
    table) become a one-row ``uint64`` cube of the request's own.

    Requests compare and hash by identity: two requests with the same
    ids are still two requests (and arrays have no truth value to
    compare by).
    """

    # ``cube``: the source stream's ``(count, tables, ids)`` id array
    # this request is a row of (batch assembly gathers whole batches from
    # it in one indexing op); ``row``: the request's row in it.
    # Manual slots: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("request_id", "arrival_time", "cube", "row")

    # The dataclass fields are the constructor's parameters, so that
    # ``dataclasses.replace`` rebuilds a request; the last two are
    # computed (see the properties).
    request_id: int
    arrival_time: float
    feature_ids: tuple
    source: tuple

    def __init__(self, request_id: int, arrival_time: float,
                 feature_ids: tuple, source: tuple = None):
        if source is None:
            cube, row = _one_row_cube(feature_ids), 0
        else:
            cube, row = source
            if feature_ids is not None and not _is_row(
                feature_ids, cube[row]
            ):
                raise WorkloadError(
                    f"request {request_id}: ids given beside a source "
                    "must be its row"
                )
        _set(self, "request_id", request_id)
        _set(self, "arrival_time", arrival_time)
        _set(self, "cube", cube)
        _set(self, "row", row)

    @property
    def feature_ids(self) -> np.ndarray:
        """Per-table feature IDs (``ids_per_field`` each): the ``(tables,
        ids)`` row of ``cube`` — a fresh view on each read, which
        indexes, iterates and has a ``len`` like a tuple of id arrays."""
        return self.cube[self.row]

    @property
    def source(self) -> tuple:
        """``(cube, row)``."""
        return self.cube, self.row

    def __reduce__(self):
        # The default reduction restores slots through the frozen
        # ``__setattr__``; the row pickles as ``None`` ids.
        return Request, (
            self.request_id, self.arrival_time, None, self.source
        )

    def __repr__(self) -> str:
        return (
            f"Request(request_id={self.request_id!r}, "
            f"arrival_time={self.arrival_time!r}, "
            f"feature_ids={self.feature_ids!r})"
        )


class RequestColumns(NamedTuple):
    """A request list read once, as columns (see :func:`request_columns`)."""

    arrivals: np.ndarray
    request_ids: np.ndarray
    #: The ``(count, tables, ids)`` cube every request has a row of.
    cube: np.ndarray
    #: Each request's row in ``cube``.
    rows: np.ndarray


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
            columns.request_ids[index], columns.cube, columns.rows[index],
        )


_ARRIVAL = attrgetter("arrival_time")
_REQUEST_ID = attrgetter("request_id")
_CUBE = attrgetter("cube")
_ROW = attrgetter("row")
_IDS = attrgetter("feature_ids")


# hot-path: vectorized
def request_columns(requests: Sequence[Request]) -> RequestColumns:
    """Arrival times, request ids and cube rows of ``requests``, read
    once (C-level attribute maps, no Python frame per request) so a
    serving run slices arrays rather than walking requests again.  When
    the requests are rows of more than one cube, their rows are stacked
    into one ``uint64`` cube (numpy would promote ``int64`` beside
    ``uint64`` to ``float64``), numbered in list order."""
    if type(requests) is RequestStream:
        return requests.columns
    n = len(requests)
    arrivals = np.fromiter(map(_ARRIVAL, requests), np.float64, count=n)
    request_ids = np.fromiter(map(_REQUEST_ID, requests), np.int64, count=n)
    if not n:
        return RequestColumns(
            arrivals, request_ids, np.zeros((0, 0, 0), np.uint64),
            np.zeros(0, np.intp),
        )
    cube = requests[0].cube
    # By identity: arrays compared with ``==`` have no truth value.
    if all(map(is_, map(_CUBE, requests), repeat(cube))):
        rows = np.fromiter(map(_ROW, requests), np.intp, count=n)
    else:
        try:
            cube = np.array(list(map(_IDS, requests)), dtype=np.uint64)
        except ValueError:
            cube = None
        if cube is None or cube.ndim != 3:
            raise WorkloadError(
                "requests of one list need rows of one shape"
            )
        rows = np.arange(n, dtype=np.intp)
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
        generator.  Each :class:`Request` stores the cube and its row
        in it (no per-request view: ``feature_ids`` is computed from
        them on read), so batch assembly gathers a batch's ids from the
        cube in one indexing op, without per-request re-stacking.
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
            Request(i, times[i], None, source=(cube, i))
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
            Request(i, times[i], None, source=(cube, i))
            for i in range(len(times))
        ]
