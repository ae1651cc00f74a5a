"""Name of the convolution kernels in use; there is only the numpy one."""


# perfbench/run.py prints this; drop the module when the benchmark changes
def backend_name() -> str:
    return "numpy"
