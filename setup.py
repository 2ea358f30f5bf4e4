"""Setuptools packaging for the repro library (src layout).

Metadata lives here (there is no pyproject.toml) so that both modern and
legacy editable installs (``pip install -e . --no-use-pep517`` in offline
environments lacking ``wheel``) resolve the same package set —
``find_packages`` picks up every ``repro.*`` subpackage, including
``repro.link``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-gated-oscillator-cdr",
    version="1.0.0",
    description=(
        "Reproduction of the DATE 2005 low-power multi-channel "
        "gated-oscillator clock-recovery circuit paper"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        # scipy backs the statistical tails (erfc/erfcinv) and the
        # dual-Dirac decomposition in repro.jitter / repro.statistical.
        "scipy",
    ],
)
