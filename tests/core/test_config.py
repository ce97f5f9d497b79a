"""GeneratorConfig validation: unknown backends fail fast."""

import pytest

from repro.core.config import GeneratorConfig
from repro.kernel import BACKENDS


def test_default_config_valid():
    assert GeneratorConfig().backend == "bitparallel"


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_registered_backend_name_accepted(name):
    assert GeneratorConfig(backend=name).backend == name


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(ValueError) as excinfo:
        GeneratorConfig(backend="bitparalel")  # typo
    message = str(excinfo.value)
    assert "bitparalel" in message
    # The error lists every valid choice, so the fix is self-evident.
    for name in BACKENDS:
        assert name in message


def test_campaign_spec_shares_the_validation():
    from repro.store.campaign import CampaignSpec, CampaignSpecError

    with pytest.raises(CampaignSpecError) as excinfo:
        CampaignSpec.from_dict(
            {"tests": ["MATS"], "faults": ["SAF"], "backends": ["bogus"]}
        )
    assert "valid choices" in str(excinfo.value)


def test_retired_process_backend_is_rejected_everywhere(capsys):
    # 'process' and the NumPy lane-tiled 'bitparallel-np' were removed;
    # config, CLI and campaign specs all refuse them with the list of
    # valid choices.
    from repro.cli import main
    from repro.store.campaign import CampaignSpec, CampaignSpecError

    for retired in ("process", "bitparallel-np"):
        with pytest.raises(ValueError, match="valid choices"):
            GeneratorConfig(backend=retired)
        with pytest.raises(CampaignSpecError, match="valid choices"):
            CampaignSpec.from_dict(
                {"tests": ["MATS"], "faults": ["SAF"], "backends": [retired]}
            )
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "MATS", "SAF", "--backend", retired])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert f"invalid choice: '{retired}'" in message
        for name in BACKENDS:
            assert name in message
