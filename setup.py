from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=("SENSS: Security Enhancement to Symmetric Shared Memory "
                 "Multiprocessors (HPCA 2005) - full reproduction"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
