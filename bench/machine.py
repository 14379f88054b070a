"""Facts about the machine and the numeric stack, recorded with every result."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_CACHE = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(_CACHE.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(),
    }


def loadavg() -> list:
    return [round(x, 2) for x in os.getloadavg()]
