"""Bad: hand-rolled journal appends outside the audited helpers."""

import os
from pathlib import Path


class CellTracker:
    def record(self, path, line: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


def log_shard(path, record: str) -> None:
    with open(path, mode="a") as handle:
        handle.write(record + "\n")


def log_raw(path, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, data)
    os.close(fd)


def log_path(path: Path, line: str) -> None:
    with path.open("a") as handle:
        handle.write(line + "\n")
    with Path(path).open(mode="ab") as handle:
        handle.write(b"\n")
