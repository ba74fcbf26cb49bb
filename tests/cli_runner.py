"""Runs a command line entry point in process, with its standard streams
captured, the way a shell would run it, and an isolated working directory
for tests that have no `tmp_path`."""

import contextlib
import io
import os
import sys
import tempfile
from types import SimpleNamespace


class _Stream(io.StringIO):
    """A captured stream that also writes to the shared `output`."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self._output = output

    def write(self, text: str) -> int:
        self._output.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args, input=None) -> SimpleNamespace:
        """Run `main(args)` on `input` as stdin. The result holds the exit
        code, stdout, stderr, both interleaved as `output`, and the
        exception that ended the run, if any; one other than SystemExit
        exits 1."""
        output = io.StringIO()
        out, err = _Stream(output), _Stream(output)
        streams = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
        exception, code = None, 0
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
            exception = exc if code else None
        except Exception as exc:
            exception, code = exc, 1
        finally:
            sys.stdin, sys.stdout, sys.stderr = streams
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=output.getvalue(), exception=exception)

    @staticmethod
    @contextlib.contextmanager
    def isolated_filesystem():
        """A new empty working directory for the block, removed after it."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as path:
            os.chdir(path)
            try:
                yield path
            finally:
                os.chdir(cwd)
