"""The repository benchmark: the served top-k path, end to end and per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload solo_miss --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with no
wrapper installed anywhere; ``--trace 1`` wraps the public names each layer
exposes and reports the per-layer metrics listed in :mod:`perfbench.layers`.
The last line of standard output is the JSON result; the lines before it
print every metric by name and unit, the sample counts and the host
fingerprint.  The benchmark's own tests run with
``python3 -m pytest perfbench/tests -q``.
"""
