"""Child-process entry point for one benchmark run: ``python -m minimon._child
<child-config.json>``, spawned by :func:`minimon.runner.run_config`. The run
itself is :func:`minimon.runner.run_child`, beside the code that reads its files.
"""

from .runner import main

if __name__ == "__main__":
    raise SystemExit(main())
