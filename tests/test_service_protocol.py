"""Wire-format unit tests for :mod:`repro.service.protocol`.

The codec carries three exactness obligations that the loopback e2e
tests rely on but cannot isolate: configs must round-trip to the same
digest the cell keys were computed from, float-valued fields must
survive JSON bit-for-bit, and malformed input must fail loudly (a
silent mis-decode would poison the content-addressed store).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import SystemConfig
from repro.experiments.cells import (
    Cell,
    custom_cell_key,
    eval_cell_key,
    profile_cell_key,
)
from repro.service.protocol import (
    ProtocolError,
    ServiceError,
    decode_cell,
    decode_config,
    decode_key,
    encode_cell,
    encode_config,
    encode_key,
    expect,
    parse_addr,
    read_msg,
)

CFG = SystemConfig()


def _feed(*lines: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for line in lines:
        reader.feed_data(line)
    reader.feed_eof()
    return reader


def test_parse_addr():
    assert parse_addr("10.0.0.5:4000") == ("10.0.0.5", 4000)
    assert parse_addr(":4000") == ("127.0.0.1", 4000)
    for bad in ("nocolon", "host:", "host:port", ""):
        with pytest.raises(ValueError):
            parse_addr(bad)


def test_config_roundtrip_preserves_digest():
    doc = encode_config(CFG)
    json.dumps(doc)  # must be JSON-safe as-is
    back = decode_config(doc)
    assert back == CFG
    assert back.digest() == CFG.digest()
    # and through an actual JSON round trip (what the wire does)
    again = decode_config(json.loads(json.dumps(doc)))
    assert again.digest() == CFG.digest()


def test_key_roundtrip_with_float_policy_args():
    key = custom_cell_key(
        "4MEM-1", "HF-RF", (("alpha", 0.1), ("bits", 3), ("mode", "x")),
        7, 300, 200, 256, CFG, 200,
    )
    doc = json.loads(json.dumps(encode_key(key)))
    back = decode_key(doc)
    assert back == key
    assert back.digest() == key.digest()
    # the float came back bit-exact, not via repr/str
    args = dict(back.policy_args)
    assert args["alpha"].hex() == (0.1).hex()
    assert isinstance(args["bits"], int)


def test_cell_roundtrip_eval_with_deps_and_me_values():
    mix_codes = ("E", "F")
    deps = tuple(profile_cell_key(c, 7, 200, CFG) for c in mix_codes)
    key = eval_cell_key("4MEM-1", "ME-LREQ", 7, 300, 200, 256, CFG, 200)
    cell = Cell(key=key, config=CFG, me_deps=deps,
                me_values=(1.5, 0.3333333333333333))
    doc = json.loads(json.dumps(encode_cell(cell)))
    back = decode_cell(doc)
    assert back.key == key
    assert back.me_deps == deps
    assert back.me_values is not None
    assert [v.hex() for v in back.me_values] == [v.hex()
                                                for v in cell.me_values]


def test_cell_roundtrip_profile_uses_single_core_digest():
    key = profile_cell_key("E", 7, 200, CFG)
    cell = Cell(key=key, config=CFG)
    back = decode_cell(json.loads(json.dumps(encode_cell(cell))))
    assert back.key == key


@pytest.fixture(scope="module")
def planned_by_kind():
    """The first planned cell of every kind ``plan_cells`` produces."""
    from repro.experiments.harness import ExperimentContext
    from repro.experiments.parallel import plan_cells

    ctx = ExperimentContext(inst_budget=300, warmup_insts=200,
                            profile_budget=200, seeds=(7,))
    cells = plan_cells(ctx, table2=True, figure2=((2,), ("MEM",)),
                       ablations=True, cloud=(("smoke",), None))
    by_kind = {}
    for cell in cells:
        by_kind.setdefault(cell.key.kind, cell)
    return by_kind


@pytest.mark.parametrize("kind",
                         ["profile", "single", "eval", "custom", "cloud"])
def test_cell_roundtrip_every_planned_kind(planned_by_kind, kind):
    # a cloud key names the derived datacenter machine, not the base
    # config the cell carries; the decoder must derive the same machine
    cell = planned_by_kind[kind]
    back = decode_cell(json.loads(json.dumps(encode_cell(cell))))
    assert back.key == cell.key
    assert back.config == cell.config
    assert back.me_deps == cell.me_deps


def test_decode_cell_rejects_config_digest_mismatch():
    key = eval_cell_key("4MEM-1", "HF-RF", 7, 300, 200, 256, CFG, 200)
    doc = encode_cell(Cell(key=key, config=CFG))
    doc["config"]["num_cores"] = 16  # codec drift / tampering
    with pytest.raises(ProtocolError, match="digest"):
        decode_cell(doc)


def test_read_msg_framing():
    async def scenario():
        reader = _feed(b'{"t": "hello"}\n', b"not json\n")
        assert (await read_msg(reader)) == {"t": "hello"}
        with pytest.raises(ProtocolError, match="undecodable"):
            await read_msg(reader)
        # clean EOF is None, not an error
        assert (await read_msg(_feed())) is None
        with pytest.raises(ProtocolError, match="JSON object"):
            await read_msg(_feed(b"[1, 2]\n"))

    asyncio.run(scenario())


def test_expect_surfaces_peer_errors():
    assert expect({"t": "welcome"}, "welcome") == {"t": "welcome"}
    with pytest.raises(ServiceError, match="closed by peer"):
        expect(None, "welcome")
    with pytest.raises(ServiceError, match="fingerprint mismatch"):
        expect({"t": "error", "error": "code fingerprint mismatch: ..."},
               "welcome")
    with pytest.raises(ProtocolError, match="expected 'welcome'"):
        expect({"t": "task"}, "welcome")
