"""Tests for the ``rt-dbscan`` command-line interface.

Every subcommand is exercised through :func:`repro.cli.main` — the same code
path the console script runs — with outputs captured via capsys and files
written into a pytest temp directory.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main

CLUSTER_SMALL = [
    "cluster", "--dataset", "blobs", "--num-points", "500",
    "--eps", "0.3", "--min-pts", "10",
]


class TestClusterCommand:
    def test_synthetic_dataset_human_output(self, capsys):
        assert main(CLUSTER_SMALL) == 0
        out = capsys.readouterr().out
        assert "rt-dbscan" in out
        assert "bvh_build" in out  # breakdown table follows the record line

    def test_json_output(self, capsys):
        assert main(CLUSTER_SMALL + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert record["algorithm"] == "rt-dbscan"
        assert record["num_points"] == 500
        assert record["num_clusters"] >= 1

    def test_csv_input_and_label_output(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(0, 0.1, (40, 2)), rng.normal(3, 0.1, (40, 2))])
        csv = tmp_path / "points.csv"
        np.savetxt(csv, pts, delimiter=",")
        labels_file = tmp_path / "labels.txt"
        rc = main([
            "cluster", "--input", str(csv), "--eps", "0.4", "--min-pts", "5",
            "--output", str(labels_file),
        ])
        assert rc == 0
        assert "labels written" in capsys.readouterr().out
        labels = np.loadtxt(labels_file, dtype=int)
        assert labels.shape == (80,)
        assert set(np.unique(labels)) == {0, 1}

    def test_label_output_fits_once(self, tmp_path, monkeypatch, capsys):
        """The printed record and the written labels come from one fit."""
        from repro.dbscan.rt_dbscan import RTDBSCAN

        fits = []
        original = RTDBSCAN.fit

        def counting(self, points):
            fits.append(len(points))
            return original(self, points)

        monkeypatch.setattr(RTDBSCAN, "fit", counting)
        labels_file = tmp_path / "labels.txt"
        assert main(CLUSTER_SMALL + ["--output", str(labels_file)]) == 0
        capsys.readouterr()
        assert fits == [500]
        assert np.loadtxt(labels_file, dtype=int).shape == (500,)

    def test_backend_selection(self, capsys):
        assert main(CLUSTER_SMALL + ["--backend", "kdtree", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"

    def test_tiles_flag_upgrades_to_tiled_algorithm(self, capsys):
        assert main(CLUSTER_SMALL + ["--tiles", "4", "--workers", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algorithm"] == "rt-dbscan-tiled"
        assert record["status"] == "ok"

    def test_tiled_labels_match_untiled(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        tiled = tmp_path / "tiled.txt"
        assert main(CLUSTER_SMALL + ["--output", str(plain)]) == 0
        assert main(CLUSTER_SMALL + ["--tiles", "4", "--output", str(tiled)]) == 0
        capsys.readouterr()
        np.testing.assert_array_equal(
            np.loadtxt(plain, dtype=int), np.loadtxt(tiled, dtype=int)
        )

    def test_tiles_with_unsupported_algorithm_errors(self, capsys):
        rc = main(CLUSTER_SMALL + ["--algo", "fdbscan", "--tiles", "4"])
        assert rc == 2
        assert "tiles" in capsys.readouterr().err

    def test_unknown_backend_combination_errors(self, capsys):
        rc = main(CLUSTER_SMALL + ["--algo", "classic", "--backend", "kdtree"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestStreamCommand:
    ARGS = [
        "stream", "--stream", "drift-blobs", "--chunks", "3",
        "--chunk-size", "60", "--window", "150", "--min-pts", "5",
    ]

    def test_human_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "streaming rt-dbscan" in out
        assert "throughput" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_pts"] == 5
        assert len(payload["updates"]) == 3
        assert payload["summary"]["points_ingested"] == 180

    def test_unbounded_window_never_grows_the_scene(self, capsys):
        """feed_capacity pre-sizes the slot buffer: exactly one build."""
        args = ["stream", "--stream", "drift-blobs", "--chunks", "4",
                "--chunk-size", "80", "--min-pts", "5", "--mode", "refit", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["scene"]["num_builds"] == 1


class TestExperimentCommand:
    def test_scaling_experiment_end_to_end(self, capsys):
        assert main(["experiment", "scaling", "--scale", "0.13"]) == 0
        out = capsys.readouterr().out
        assert "Tiled scale-out" in out
        assert "rt-dbscan-tiled" in out
        assert "Speedup over rt-dbscan" in out

    def test_scaling_experiment_json_with_workers(self, capsys):
        assert main(["experiment", "scaling", "--scale", "0.13", "--workers", "2"]) == 0
        # Re-run in JSON mode and check the records are complete and ok.
        capsys.readouterr()
        assert main(["experiment", "scaling", "--scale", "0.13", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["algorithm"] for r in records} == {"rt-dbscan", "rt-dbscan-tiled"}
        assert all(r["status"] == "ok" for r in records)

    def test_backends_experiment_small_scale(self, capsys):
        assert main(["experiment", "backends", "--scale", "0.13", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "ok" for r in records)
        assert {r["algorithm"] for r in records} == {
            "rt-dbscan@brute", "rt-dbscan@grid", "rt-dbscan@kdtree", "rt-dbscan",
        }


class TestListCommand:
    def test_lists_every_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in ("datasets:", "streams:", "algorithms:",
                        "neighbour backends", "experiments:", "streaming experiments:"):
            assert heading in out
        assert "rt-dbscan-tiled" in out
        assert "[backends, tiles, native]" in out
        assert "scaling" in out

    def test_native_capable_entries_are_tagged(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "[backends, native]" in out   # rt-dbscan
        assert "[native]" in out             # rt / grid / brute backends


class TestExactBackendsOnly:
    """Only exact neighbour backends exist; approximate-tier options are usage errors."""

    def test_list_names_exactly_the_four_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        section = out.split("neighbour backends")[1].split("experiments:")[0]
        names = [line.split()[0] for line in section.splitlines()[1:] if line.strip()]
        assert names == ["brute", "grid", "kdtree", "rt"]

    @pytest.mark.parametrize(
        "argv",
        [
            CLUSTER_SMALL + ["--backend", "lsh"],
            CLUSTER_SMALL + ["--recall-target", "0.9"],
            ["experiment", "approx"],
            CLUSTER_SMALL + ["--backend", "sampled"],
            CLUSTER_SMALL + ["--probes", "4"],
            CLUSTER_SMALL + ["--sample-rate", "0.5"],
            CLUSTER_SMALL + ["--reference", "none"],
        ],
        ids=[
            "lsh-backend", "recall-target", "approx-experiment",
            "sampled-backend", "probes", "sample-rate", "reference",
        ],
    )
    def test_approximate_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestNativeCommand:
    def test_reports_status(self, capsys):
        rc = main(["native"])
        out = capsys.readouterr().out
        assert "native kernel tier" in out
        assert "REPRO_NATIVE" in out
        assert rc in (0, 1)  # 0 when active (or off); 1 when wanted but unbuildable

    def test_json_status(self, capsys):
        main(["native", "--json"])
        status = json.loads(capsys.readouterr().out)
        assert {"mode", "active", "built", "attempted"} <= status.keys()

    def test_off_mode_is_a_clean_zero(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert main(["native", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["mode"] == "off"
        assert status["active"] is False

    def test_cluster_native_flag_roundtrips_tier(self, capsys):
        from repro.native import dispatch

        assert main(CLUSTER_SMALL + ["--json", "--native", "off"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kernel_tier"] == "numpy"
        if dispatch.available():
            assert main(CLUSTER_SMALL + ["--json", "--native", "on"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["kernel_tier"] == "native"


class TestParser:
    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--eps", "0.3", "--min-pts", "5"])


class TestServeCommand:
    def test_serve_end_to_end_over_a_socket(self, tmp_path, capsys):
        """Start the server on an ephemeral port, drive the wire protocol
        from a client thread, and let `shutdown` stop it (rc 0)."""
        import socket
        import threading

        port_file = tmp_path / "service.port"
        replies: list[dict] = []

        def client() -> None:
            while not port_file.exists() or not port_file.read_text().strip():
                pass
            port = int(port_file.read_text().strip())
            chunk = np.random.default_rng(0).uniform(0, 2, (40, 2)).tolist()
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                for payload in (
                    {"op": "ingest", "tenant": "a", "points": chunk},
                    {"op": "query_labels", "tenant": "a"},
                    {"op": "stats"},
                    {"op": "shutdown"},
                ):
                    fh.write(json.dumps(payload).encode() + b"\n")
                    fh.flush()
                    replies.append(json.loads(fh.readline()))

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        rc = main([
            "serve", "--port", "0", "--port-file", str(port_file),
            "--eps", "0.4", "--min-pts", "5", "--window", "300",
        ])
        thread.join(timeout=10)
        assert rc == 0
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "stopped after 4 request(s)" in out
        assert [r["status"] for r in replies] == ["ok", "ok", "ok", "ok"]
        assert len(replies[1]["body"]["labels"]) == 40
        assert replies[2]["body"]["config"]["spec"]["eps"] == 0.4

    def test_serve_max_requests_auto_stops(self, tmp_path, capsys):
        import socket
        import threading

        port_file = tmp_path / "service.port"

        def client() -> None:
            while not port_file.exists() or not port_file.read_text().strip():
                pass
            port = int(port_file.read_text().strip())
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(json.dumps({"op": "stats"}).encode() + b"\n")
                fh.flush()
                fh.readline()

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        rc = main([
            "serve", "--port", "0", "--port-file", str(port_file),
            "--max-requests", "1", "--eps", "0.3", "--min-pts", "5",
        ])
        thread.join(timeout=10)
        assert rc == 0
        assert "stopped after 1 request(s)" in capsys.readouterr().out

    def test_serve_rejects_batch_only_algorithm(self, capsys):
        rc = main([
            "serve", "--port", "0", "--algo", "rt-dbscan",
            "--eps", "0.3", "--min-pts", "5",
        ])
        assert rc == 2
        assert "partial_fit" in capsys.readouterr().err

    def test_serve_requires_eps_and_min_pts(self, capsys):
        # optional at the parser level so --restore-check can run alone,
        # but still mandatory to actually start a server
        rc = main(["serve", "--port", "0"])
        assert rc == 2
        assert "--eps and --min-pts are required" in capsys.readouterr().err


class TestRestoreCheck:
    def _state_dir(self, tmp_path):
        from repro.service import SnapshotStore
        from repro.streaming.engine import StreamingRTDBSCAN

        engine = StreamingRTDBSCAN(eps=0.4, min_pts=5, window=120, backend="grid")
        engine.update(np.random.default_rng(0).normal(size=(80, 3)))
        store = SnapshotStore(tmp_path / "state")
        store.save("alpha", engine.snapshot())
        store.save("beta", engine.snapshot())
        return store

    def test_all_good_exits_zero(self, tmp_path, capsys):
        self._state_dir(tmp_path)
        rc = main(["serve", "--restore-check", str(tmp_path / "state")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 checkpoint(s) verified" in out
        assert "ok" in out and "alpha" in out and "backend=grid" in out

    def test_corrupt_checkpoint_exits_nonzero(self, tmp_path, capsys):
        store = self._state_dir(tmp_path)
        path = store.path_for("beta")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        rc = main(["serve", "--restore-check", str(tmp_path / "state")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "CORRUPT" in out and "beta" in out
        assert "1/2 checkpoint(s) verified" in out
        # the diagnostic never moves files; recovery decisions stay manual
        assert path.exists()

    def test_empty_dir_reports_nothing_to_verify(self, tmp_path, capsys):
        rc = main(["serve", "--restore-check", str(tmp_path / "empty")])
        assert rc == 0
        assert "no checkpoints found" in capsys.readouterr().out
