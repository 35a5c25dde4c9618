"""End-to-end benchmark for the repro TigerVector system.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds the subject from scratch through the public load
APIs, drives one workload, checks the answers and prints every metric by
name with its unit.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).

The workload and metric catalog lives in :mod:`perfbench.catalog`;
``python3 perfbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` from it.
"""
