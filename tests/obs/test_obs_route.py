"""One route for observability: the substrate carries the bundle.

Cluster builders take ``obs`` and attach it to their environment; every
component below them reads ``env.obs`` at construction.  This guard
keeps a second route from growing back: no public class in the protocol
packages accepts an ``obs`` argument.
"""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro.core",
    "repro.client",
    "repro.mds",
    "repro.net",
    "repro.storage",
    "repro.faults",
]


def _public_classes(package_name):
    package = importlib.import_module(package_name)
    names = [package_name] + [
        info.name
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package_name + "."
        )
    ]
    for name in names:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if (
                inspect.isclass(value)
                and value.__module__ == name
                and not attr.startswith("_")
            ):
                yield value


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_constructor_below_the_cluster_builders_takes_obs(package_name):
    classes = list(_public_classes(package_name))
    assert classes
    takes_obs = [
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if "obs" in inspect.signature(cls.__init__).parameters
    ]
    assert takes_obs == []
