"""Every registered experiment at full scale, with every claim asserted.

``repro.analysis.figures.FIGURES`` declares the experiments; each figure
function's defaults are its full scale and it attaches its own shape
claims, so this module only runs, records and checks them.
"""

import pytest
from conftest import RESULTS_DIR

from repro.analysis.figures import FIGURES
from repro.analysis.report import FULL

#: Fig. 15 also writes its original/stolen/oracle images next to the tables.
_EXTRA_KWARGS = {"fig15": {"save_dir": str(RESULTS_DIR / "fig15_images")}}


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_claims(name, benchmark, record_figure):
    result = benchmark.pedantic(
        FIGURES[name].fn, kwargs=_EXTRA_KWARGS.get(name, {}), rounds=1, iterations=1
    )
    record_figure(result)
    assert not result.broken_claims(FULL), [c.name for c in result.broken_claims(FULL)]
