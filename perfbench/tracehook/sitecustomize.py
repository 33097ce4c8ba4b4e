"""Start-up hook of the perfbench traced run.

``perfbench/run.py`` puts this directory on ``PYTHONPATH`` for the traced
server only, so every interpreter of the served process tree -- the
``repro serve`` process and the shard and replica processes that
``multiprocessing`` spawns -- imports this module at start-up.  It does
nothing unless ``PERFBENCH_TRACE_DIR`` names the directory the spans go to.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_tracer

    perfbench_tracer.install(os.environ["PERFBENCH_TRACE_DIR"])
