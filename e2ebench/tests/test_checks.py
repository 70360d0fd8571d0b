"""The output checks that need no program run."""

import checks
from programs import Exchange


def _exchange(status=200, cache="hit", etag='"e"', body=b"{}\n"):
    return Exchange(status, {"X-Cache": cache, "ETag": etag}, body, 0.0, 0.0, 0.0)


def test_answer_must_match_status_cache_etag_and_bytes():
    expected = (b"{}\n", '"e"')
    assert checks.answer_error(_exchange(), expected, "hit") is None
    assert "status" in checks.answer_error(_exchange(status=202), expected, "hit")
    assert "X-Cache" in checks.answer_error(_exchange(cache="fill"), expected, "hit")
    assert "ETag" in checks.answer_error(_exchange(etag='"f"'), expected, "hit")
    assert "body" in checks.answer_error(_exchange(body=b"{ }\n"), expected, "hit")
    assert "store" in checks.answer_error(_exchange(), None, "hit")


COLD = "sweep:  edge-meg\n  n=    32  trials=  64  mean 3.0\n  n=    48  trials=  64  mean 3.2\n"
WARM = (
    "sweep:  edge-meg\n  n=    32  trials=  64  mean 3.0  [cached]\n"
    "  n=    48  trials=  64  mean 3.2  [cached]\n"
)


def test_warm_cli_output_is_the_cold_output_plus_cache_markers():
    assert checks.cli_error(WARM, COLD) is None
    assert "served from the store" in checks.cli_error(COLD, COLD)
    assert "differs" in checks.cli_error(WARM.replace("3.2", "3.3"), COLD)
    assert "served from the store" in checks.cli_error("", COLD)
