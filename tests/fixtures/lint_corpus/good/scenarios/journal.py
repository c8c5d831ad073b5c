"""Good: append-mode writes live inside an audited *Journal class."""

import json
import os
from pathlib import Path


class CellJournal:
    def __init__(self, path):
        self.path = path

    def append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append_raw(self, data: bytes) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)


def read_back(path: Path) -> bytes:
    # Reads and non-append opens are not journal appends.
    fd = os.open(path, os.O_RDONLY)
    os.close(fd)
    with path.open("rb") as handle:
        return handle.read()
