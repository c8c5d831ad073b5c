"""Call-trace hook: record every ``repro`` function a process enters.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one, so putting this directory on ``PYTHONPATH`` traces
every interpreter a command starts, its pool workers included.  The hook
is inert unless both variables are set:

* ``UNREACHED_SRC`` — the absolute path of the ``src/repro`` directory to
  trace; calls into any other file are ignored;
* ``UNREACHED_OUT`` — the directory that receives one
  ``calls-<pid>.txt`` file per process, one ``<file>\\t<first line>`` row
  per code object entered.

``sys.setprofile`` and ``threading.setprofile`` see every Python call.  The
parent writes its file from ``atexit``.  A forked ``multiprocessing`` worker
inherits the hook, but ``Process._bootstrap`` clears the finalizers it
inherits and leaves through ``os._exit``, which skips ``atexit``; so each
fork registers a fresh ``multiprocessing.util.Finalize``.  It needs an
``exitpriority``: a finalizer without one never runs at exit.
"""

import atexit
import os
import sys
import threading

_SRC = os.environ.get("UNREACHED_SRC")
_OUT = os.environ.get("UNREACHED_OUT")


class _Recorder:
    """The code objects one process entered under ``_SRC``."""

    def __init__(self, src, out):
        self.src = os.path.join(os.path.realpath(src), "")
        self.out = out
        self.seen = set()
        self.ignored = set()

    def profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in self.seen or code in self.ignored:
            return
        if os.path.realpath(code.co_filename).startswith(self.src):
            self.seen.add(code)
        else:
            self.ignored.add(code)

    def dump(self):
        rows = sorted(
            {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in self.seen}
        )
        path = os.path.join(self.out, f"calls-{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(f"{name}\t{line}\n" for name, line in rows)

    def after_fork(self):
        from multiprocessing import util

        util.Finalize(self, self.dump, exitpriority=100)


def _install(src, out):
    recorder = _Recorder(src, out)
    sys.setprofile(recorder.profile)
    threading.setprofile(recorder.profile)
    atexit.register(recorder.dump)
    from multiprocessing import util

    util.register_after_fork(recorder, _Recorder.after_fork)


if _SRC and _OUT:
    _install(_SRC, _OUT)
