"""Reading and writing request traces as CSV files.

Real traces (NYC TLC exports, Didi GAIA extracts) can be converted to the
same five-column schema and fed to the simulator; the synthetic generators
use the identical representation so everything downstream is agnostic to the
trace's origin.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from collections.abc import Sequence

from ..exceptions import WorkloadError
from ..model.request import Request

#: Column order of the CSV schema.
CSV_COLUMNS = (
    "request_id",
    "source",
    "destination",
    "riders",
    "release_time",
    "deadline",
    "direct_cost",
    "max_wait",
)


def save_requests_csv(requests: Sequence[Request], path: str | Path) -> None:
    """Write a request trace to ``path`` using the canonical CSV schema."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for request in requests:
            writer.writerow(
                [
                    request.request_id,
                    request.source,
                    request.destination,
                    request.riders,
                    f"{request.release_time:.3f}",
                    f"{request.deadline:.3f}",
                    f"{request.direct_cost:.3f}",
                    "inf" if math.isinf(request.max_wait) else f"{request.max_wait:.3f}",
                ]
            )


def load_requests_csv(path: str | Path) -> list[Request]:
    """Load a request trace previously written by :func:`save_requests_csv`."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"trace file {path} does not exist")
    requests: list[Request] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise WorkloadError(f"trace file {path} is missing columns {sorted(missing)}")
        for row in reader:
            requests.append(
                Request(
                    request_id=int(row["request_id"]),
                    source=int(row["source"]),
                    destination=int(row["destination"]),
                    riders=int(row["riders"]),
                    release_time=float(row["release_time"]),
                    deadline=float(row["deadline"]),
                    direct_cost=float(row["direct_cost"]),
                    max_wait=float(row["max_wait"]),
                )
            )
    requests.sort(key=lambda r: (r.release_time, r.request_id))
    return requests
