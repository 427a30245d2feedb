from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

# Only the walk stepper is compiled, and only from the .pyx: without Cython
# nothing is built and the package runs on its pure-Python fallback.
ext_modules = []
if cythonize is not None:
    ext_modules = cythonize(
        [Extension("hyperrank._kernels._ckernels",
                   ["src/hyperrank/_kernels/_ckernels.pyx"],
                   extra_compile_args=["-O3"])],
        language_level="3")
for ext in ext_modules:
    # set after cythonize, which builds new Extension objects; a failed
    # compile then leaves the fallback in place
    ext.optional = True

setup(ext_modules=ext_modules)
