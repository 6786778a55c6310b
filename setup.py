from setuptools import Extension, setup

setup(
    ext_modules=[
        # a plain C library loaded with ctypes, not an extension module: no
        # Python module has its name, so the import system never tries it
        Extension(
            "wavebound.kernels._stencil_c",
            ["src/wavebound/kernels/stencil.c"],
            # no fast-math and no FP contraction: the compiled kernel
            # must stay bitwise identical to the numpy fallback
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
