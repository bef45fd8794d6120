"""``python -m repro`` — see :mod:`repro.cli`."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        code = main()
        # Flush here, so a reader that stopped early is met inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro list | head -1``).  Python
        # flushes stdout again at exit; pointing it at devnull keeps that
        # flush from raising a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
