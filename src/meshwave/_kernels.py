USE_NUMBA = False  # perfbench/run.py records this flag; the two go together
