"""The package's top-level surface.

The simulator-backed node environment is covered, on every engine, by
``tests/unit/test_engine_contract.py``.
"""

import tomllib
from pathlib import Path

import repro


class TestPackageSurface:
    def test_top_level_exports_are_importable(self):
        assert repro.__version__ == "1.1.0"
        assert repro.RaftNode.protocol_name == "raft"
        assert repro.EscapeNode.protocol_name == "escape"
        assert repro.ZRaftNode.protocol_name == "zraft"
        assert repro.protocols.get("escape").node_class is repro.EscapeNode
        assert repro.ClusterConfig.of_size(3).quorum_size == 2

    def test_there_is_one_version_number(self):
        """``repro.__version__`` is the source; pyproject.toml derives from it."""
        pyproject = tomllib.loads(
            (Path(__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8")
        )
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
