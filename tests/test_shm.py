"""The zero-copy shared-memory data plane (`repro.sweep.shm`).

Lifecycle is the whole game: segments must exist exactly as long as the
owner wants them — surviving worker exits and kills, never surviving the
driver — and attachments must be read-only views that cannot destroy or
corrupt what they observe.
"""

from __future__ import annotations

import io
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.sweep.shm import SharedMapStore

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)


def shm_segments() -> list[str]:
    """Our segments currently present in /dev/shm."""
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro-map")]


MAPS = {
    "IMAP": np.arange(12, dtype=np.int64).reshape(3, 4),
    "FMAP": np.array([[1.5, 2.5]], dtype=np.float64),
}


class TestCreateAttach:
    def test_roundtrip_preserves_contents(self):
        with SharedMapStore.create(MAPS) as store:
            attached = SharedMapStore.attach(store.descriptors())
            try:
                for name, src in MAPS.items():
                    np.testing.assert_array_equal(attached[name], src)
                    assert attached[name].dtype == src.dtype
            finally:
                attached.close()

    def test_mapping_protocol(self):
        with SharedMapStore.create(MAPS) as store:
            assert len(store) == 2
            assert sorted(store) == ["FMAP", "IMAP"]
            assert "IMAP" in store
            assert set(store.keys()) == set(MAPS)
            with pytest.raises(KeyError):
                store["NOPE"]

    def test_views_are_read_only_on_both_sides(self):
        with SharedMapStore.create(MAPS) as store:
            with pytest.raises(ValueError):
                store["IMAP"][0, 0] = 99
            attached = SharedMapStore.attach(store.descriptors())
            try:
                with pytest.raises(ValueError):
                    attached["IMAP"][0, 0] = 99
            finally:
                attached.close()

    def test_descriptors_are_tiny_and_picklable(self):
        big = {"IMAP": np.zeros((4, 250_000), dtype=np.int64)}
        with SharedMapStore.create(big) as store:
            payload = pickle.dumps(store.descriptors())
            assert len(payload) < 1024
            assert store.nbytes() == big["IMAP"].nbytes

    def test_zero_size_array(self):
        with SharedMapStore.create({"E": np.empty((0,), dtype=np.float32)}) as store:
            attached = SharedMapStore.attach(store.descriptors())
            try:
                assert attached["E"].shape == (0,)
            finally:
                attached.close()

    def test_non_contiguous_source_is_copied_contiguously(self):
        src = np.arange(20).reshape(4, 5).T  # transposed -> not C-contiguous
        with SharedMapStore.create({"T": src}) as store:
            np.testing.assert_array_equal(store["T"], src)


class TestIdentity:
    def test_stores_hash_by_object_identity(self):
        with SharedMapStore.create(MAPS) as a, SharedMapStore.create(MAPS) as b:
            assert len({a, b}) == 2
            assert a != b and a == a


class TestLifecycle:
    def test_context_exit_unlinks(self):
        before = set(shm_segments())
        with SharedMapStore.create(MAPS) as store:
            created = set(shm_segments()) - before
            assert len(created) == 2
        assert set(shm_segments()) == before
        assert store.closed

    def test_unlink_is_idempotent_and_owner_only(self):
        store = SharedMapStore.create(MAPS)
        attached = SharedMapStore.attach(store.descriptors())
        with pytest.raises(RuntimeError):
            attached.unlink()
        attached.close()
        store.unlink()
        store.unlink()  # second time is a no-op

    def test_closed_store_raises_keyerror(self):
        store = SharedMapStore.create(MAPS)
        store.unlink()
        with pytest.raises(KeyError):
            store["IMAP"]

    def test_create_failure_rolls_back_created_segments(self):
        class Exploding:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("boom")

        before = set(shm_segments())
        # copying the second "array" fails after the first segment exists;
        # create must unlink the survivors on the way out
        with pytest.raises(RuntimeError, match="boom"):
            SharedMapStore.create({"A": np.zeros(4), "B": Exploding()})
        assert set(shm_segments()) == before

    def test_atexit_guard_unlinks_leaked_owner(self):
        code = (
            "import numpy as np\n"
            "from repro.sweep.shm import SharedMapStore\n"
            "store = SharedMapStore.create({'M': np.arange(100)})\n"
            "print(store.descriptors()['M']['segment'])\n"
            # no unlink, no context manager: rely on the atexit guard
        )
        r = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            check=True,
        )
        segment = r.stdout.strip()
        assert segment.startswith("repro-map")
        assert segment not in shm_segments()

    def test_standalone_attacher_exit_does_not_destroy_segment(self):
        """An unrelated process attaching must not unlink on its exit.

        This is the resource-tracker regression the `_untrack` guard
        exists for: a fresh process's tracker would otherwise unlink the
        segment out from under the owner and print a leak warning.
        """
        with SharedMapStore.create({"M": np.arange(1000)}) as store:
            code = (
                "from repro.sweep.shm import SharedMapStore\n"
                f"s = SharedMapStore.attach({store.descriptors()!r})\n"
                "print(int(s['M'].sum()))\n"
            )
            r = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                check=True,
            )
            assert r.stdout.strip() == str(sum(range(1000)))
            assert "leaked" not in r.stderr and "Traceback" not in r.stderr
            # owner can still read its view after the attacher died
            assert int(store["M"].sum()) == sum(range(1000))


class TestKilledWorkerLeak:
    def test_killed_grid_worker_leaks_no_segments(self, tmp_path):
        """`--kill-replication` under `--share-maps` leaves /dev/shm clean.

        The killed pool child dies with `os._exit` — no cleanup of any
        kind — while holding an attachment.  The owner's unlink (and the
        kernel's refcounting) must still remove every segment.
        """
        before = set(shm_segments())
        out = io.StringIO()
        code = main(
            [
                "sweep",
                "reverse-indirect",
                "--grid",
                "sim_workers=2,4",
                "--replications",
                "2",
                "--share-maps",
                "--workers",
                "2",
                "--param",
                "n=32",
                "--kill-replication",
                "1",
                "-o",
                str(tmp_path / "report.json"),
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "restarts     : 1" in out.getvalue()
        assert set(shm_segments()) == before
