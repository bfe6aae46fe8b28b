"""Set-up probe, run in a fresh interpreter by run.py.

Prints the CPU seconds this process has used to start, ``import dfakit``
and run one operation with cold caches; exits with the operation's exit
code. Usage::

    python3 perfbench/probe.py SRC_DIR '[["expected", ...], ["bias", ...]]'
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
import dfakit.cli  # noqa: E402

rc = 0
for argv in json.loads(sys.argv[2]):
    rc = dfakit.cli.main(argv)
    if rc != 0:
        break
print(repr(time.process_time()))
sys.exit(rc)
