"""GeneratorConfig holds the generator's choices; the kernel refuses
unknown backends."""

import dataclasses

import pytest

from repro.core.config import GeneratorConfig
from repro.core.generator import MarchTestGenerator
from repro.kernel import (
    BACKENDS,
    DEFAULT_BACKEND,
    SimulationKernel,
    resolve_backend,
)


def test_config_fields_are_the_pipeline_choices():
    assert [field.name for field in dataclasses.fields(GeneratorConfig)] == [
        "prefer_uniform_start",
        "selection_limit",
        "atsp_method",
        "tighten",
        "check_redundancy",
        "polish",
        "weight_mode",
    ]


def test_default_config_valid():
    generator = MarchTestGenerator()
    assert generator.config == GeneratorConfig()
    # The generator's own kernel packs; the bare kernel keeps the
    # scalar reference oracle.
    assert DEFAULT_BACKEND == "bitparallel"
    assert generator.kernel.backend.name == DEFAULT_BACKEND
    assert SimulationKernel().backend.name == "serial"


def test_generator_uses_the_given_kernel():
    kernel = SimulationKernel(backend="serial")
    assert MarchTestGenerator(kernel=kernel).kernel is kernel


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_registered_backend_name_accepted(name):
    assert resolve_backend(name).name == name
    assert SimulationKernel(backend=name).backend.name == name


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(ValueError) as excinfo:
        SimulationKernel(backend="bitparalel")  # typo
    message = str(excinfo.value)
    assert "bitparalel" in message
    # The error lists every valid choice, so the fix is self-evident.
    assert "valid choices" in message
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
    # the kernel, CLI and campaign specs all refuse them with the list
    # of valid choices.
    from repro.cli import main
    from repro.store.campaign import CampaignSpec, CampaignSpecError

    for retired in ("process", "bitparallel-np"):
        with pytest.raises(ValueError, match="valid choices"):
            resolve_backend(retired)
        with pytest.raises(ValueError, match="valid choices"):
            SimulationKernel(backend=retired)
        with pytest.raises(CampaignSpecError, match="valid choices"):
            CampaignSpec.from_dict(
                {"tests": ["MATS"], "faults": ["SAF"], "backends": [retired]}
            )
        for command in (["simulate", "MATS"], ["generate"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["SAF", "--backend", retired])
            assert excinfo.value.code == 2
            message = capsys.readouterr().err
            assert f"invalid choice: '{retired}'" in message
            for name in BACKENDS:
                assert name in message
