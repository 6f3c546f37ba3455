"""E21 (extension) — Compile curve of the LUT-bitmap classifier.

Regenerates: compile milliseconds, LUT bytes, class cells, boxes and
classify microseconds per packet for one ternary table of 10 to 50k
entries over a 6-byte key, classified at the gateway batch size (1024).
Class cells are the cross-product cells of the table's class chain, 0
where the table stays on its LUT bitmaps, so the column shows where
tables leave the class path.  Boxes count the runs of entries that are
exact products, 0 unless the table classifies over them (its boxes
pack into fewer words than its entries); random entries form no
products, so these tables stay on entry bitmaps.  Entries carry
random values, per-byte masks drawn from {0x00, 0xF0, 0xFF} (wildcard,
nibble, exact) and random priorities; keys are random bytes.  Compile
time is the best of three ``Switch.compile()`` calls and classify time
the best of five ``Switch.classify_arrays`` calls on one pre-extracted
key matrix.  LUT bytes must equal ``width × 256 × ceil(E / 64) × 8``.
Timed section: classification at 5k entries (pytest-benchmark stats).
"""

import time

import numpy as np

from repro.dataplane import Switch, SwitchConfig, TernaryTable
from repro.eval.harness import GATEWAY_BATCH_SIZE
from repro.eval.report import format_series

SIZES = [10, 30, 100, 1_000, 5_000, 10_000, 50_000]
WIDTH = 6


def _filled_switch(n_entries: int, seed: int = 0) -> Switch:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 256, size=(n_entries, WIDTH)).tolist()
    masks = rng.choice([0x00, 0xF0, 0xFF], size=(n_entries, WIDTH)).tolist()
    priorities = rng.integers(0, 16, size=n_entries).tolist()
    switch = Switch(SwitchConfig(key_offsets=tuple(range(WIDTH))))
    table = TernaryTable("fw", WIDTH, max_entries=n_entries)
    for value, mask, priority in zip(values, masks, priorities):
        table.add(value, mask, "drop", priority=priority)
    switch.add_table(table)
    return switch


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e21_compile_curve(benchmark):
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 256, size=(GATEWAY_BATCH_SIZE, WIDTH), dtype=np.uint8)
    sizes = np.full(GATEWAY_BATCH_SIZE, 64, dtype=np.int64)
    compile_ms, lut_bytes, class_cells, boxes, classify_us = [], [], [], [], []
    timed = None
    for n_entries in SIZES:
        switch = _filled_switch(n_entries)
        compile_ms.append(round(1e3 * _best(switch.compile, 3), 2))
        report = switch.compile()
        assert report.lut_bytes == WIDTH * 256 * (-(-n_entries // 64)) * 8
        lut_bytes.append(report.lut_bytes)
        class_cells.append(report.class_cells)
        boxes.append(report.boxes)
        seconds = _best(lambda: switch.classify_arrays(keys, sizes), 5)
        classify_us.append(round(1e6 * seconds / GATEWAY_BATCH_SIZE, 2))
        if n_entries == 5_000:
            timed = switch
    print()
    print(
        format_series(
            SIZES,
            {
                "compile_ms": compile_ms,
                "lut_bytes": lut_bytes,
                "class_cells": class_cells,
                "boxes": boxes,
                "classify_us_per_pkt": classify_us,
            },
            x_name="ternary_entries",
            title=f"E21: compile curve (width {WIDTH}, batch {GATEWAY_BATCH_SIZE})",
        )
    )

    benchmark(lambda: timed.classify_arrays(keys, sizes))
