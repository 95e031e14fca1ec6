from setuptools import find_packages, setup

setup(
    name="selfish-network-dynamics",
    version="0.1.0",
    description=(
        "Reproduction of Kawald & Lenzner, 'On Dynamics in Selfish "
        "Network Creation' (SPAA 2013): swap/buy network creation games, "
        "best-response dynamics, and the paper's experiments"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # np.bitwise_count and bitorder-aware packbits in the bit-packed
    # kernel need numpy 2.x
    install_requires=["numpy>=2.0"],
    extras_require={
        # networkx is the independent graph oracle of the graph tests
        "test": ["pytest", "hypothesis", "pytest-benchmark", "networkx"],
    },
)
