"""The repo-level benchmark (see ``bench/README.md`` and ``BENCHMARK.json``).

Everything here measures the program from outside: inputs are generated
by :mod:`bench.script`, replayed through the program's public clients by
:mod:`bench.replay`, checked by :mod:`bench.oracle`, and -- in a traced
run -- timed per layer by wrappers that :mod:`bench.trace` installs
around the program's functions and removes again afterwards.
"""
