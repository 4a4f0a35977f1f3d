"""Forked helper processes for the topic model's CPU work under `--jobs`.

A helper is a child process forked from the caller. It inherits the
caller's memory, so the corpus or model it works on is never sent, and it
answers its requests over a pipe, in order. It writes no file, opens no
SQLite connection and prints nothing: the caller writes every artifact. A
helper is forked only where the platform has the fork start method and
one thread is alive, and the stages fork one only while no cache is open,
so no child ever holds a lock another thread took or uses its parent's
SQLite connection (https://www.sqlite.org/howtocorrupt.html, §2.6).

A helper that fails, for any reason, costs time and not the run: the
caller does the work itself, so an error the work raises is raised in the
caller, with its own type and message.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

# The caller's end of each open helper's pipe. A new helper closes its
# copies of them all, its own included, so each helper sees the end of its
# pipe once its caller closes its end or exits.
_caller_ends: set = set()


def can_fork(jobs: int) -> bool:
    """Whether `--jobs` calls for helpers and one can be forked now: jobs is 2
    or more, fork is available, one thread is alive, and this process may
    have children. The one place that rule is kept."""
    if jobs < 2:
        return False
    # Imported only past the check above, as by every use: its modules add
    # 0.75 MiB to RSS, which --jobs 1 never pays.
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    )


class Helper:
    """A forked process that computes fn(request) for each request it is sent."""

    def __init__(self, fn):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(fn, child_end, os.getpid()), daemon=True
        )
        self._sent = False
        _caller_ends.add(self._conn)  # the helper closes its copy of this end too
        try:
            self._process.start()
        except OSError:  # no fork, as for want of memory: the caller does the work
            self._process = None
            self.close()
        finally:
            child_end.close()

    def submit(self, request) -> None:
        """Send one request; its answer is taken by the next result()."""
        try:
            self._conn.send(request)
            self._sent = True
        except OSError:  # the helper has exited, or this end is closed
            self._sent = False

    def result(self, compute):
        """The answer to the request last submitted, or compute() when the
        helper could not give it."""
        if self._sent:
            self._sent = False
            try:
                return self._conn.recv()
            except (EOFError, OSError):
                pass
        return compute()

    def close(self) -> None:
        """Stop the helper, whatever it is doing, and reap it."""
        _caller_ends.discard(self._conn)
        self._conn.close()
        if self._process is not None:
            self._process.terminate()
            self._process.join()
            self._process.close()
            self._process = None

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(fn, conn, caller: int) -> None:
    """A helper's life: answer each request until the caller's end closes.

    It leaves by os._exit, so it runs none of its parent's exit handlers and
    flushes none of its buffered output. A request whose fn raises gets no
    answer, and the helper exits, so the caller computes that answer itself.
    On Linux the kernel kills the helper when its caller dies, also by
    SIGKILL, so no helper runs on alone, holding the workspace lock's file.
    """
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if sys.platform.startswith("linux"):
            import ctypes

            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            pr_set_pdeathsig = 1
            prctl(pr_set_pdeathsig, signal.SIGKILL)  # a failure loses only this guard
        if os.getppid() != caller:  # it died before the request above
            return
        for end in _caller_ends:
            end.close()
        while True:
            try:
                request = conn.recv()
            except EOFError:
                code = 0
                break
            conn.send(fn(request))
    finally:
        os._exit(code)
