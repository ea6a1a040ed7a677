"""Tests for the command-line interface (render -> train -> evaluate -> demo)."""

import json

import pytest

from repro.cli import main


@pytest.mark.slow
class TestCliWorkflow:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GesturePrint" in out
        assert "60 GHz" in out

    def test_render_train_evaluate_demo(self, tmp_path, capsys):
        data_path = str(tmp_path / "data.npz")
        model_dir = str(tmp_path / "model")

        assert main([
            "render", "--out", data_path, "--users", "2", "--gestures", "2",
            "--reps", "6", "--points", "32", "--seed", "3",
        ]) == 0
        assert "rendered" in capsys.readouterr().out

        assert main([
            "train", "--data", data_path, "--model-dir", model_dir,
            "--epochs", "6", "--batch-size", "16",
        ]) == 0
        out = capsys.readouterr().out
        metrics = json.loads(out[: out.rindex("}") + 1])
        assert set(metrics) == {"GRA", "GRF1", "GRAUC", "UIA", "UIF1", "UIAUC", "EER"}

        assert main(["evaluate", "--data", data_path, "--model-dir", model_dir]) == 0
        json.loads(capsys.readouterr().out)

        code = main([
            "demo", "--model-dir", model_dir, "--gesture", "ahead",
            "--environment", "office", "--seed", "5",
        ])
        out = capsys.readouterr().out
        # Either a detection is printed or the stream had no usable gesture.
        assert code in (0, 1)
        if code == 0:
            assert "gesture #" in out

        # Work-zone advisories: a user far outside the zone triggers the
        # step-closer reminder of SVI-B2.
        code = main([
            "demo", "--model-dir", model_dir, "--gesture", "ahead",
            "--environment", "office", "--seed", "5",
            "--distance", "4.5", "--work-zone",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "advisory: step closer" in out

        # Session identification: fuse several gestures of user 0.
        code = main([
            "session", "--data", data_path, "--model-dir", model_dir,
            "--user", "0", "--gestures", "3",
        ])
        result = json.loads(capsys.readouterr().out)
        assert result["gestures_fused"] == 3
        assert code in (0, 1)

        # Multi-stream serving: events micro-batched across streams.
        code = main([
            "serve", "--model-dir", model_dir, "--streams", "4", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        stats = json.loads(out[: out.index("}") + 1])
        assert stats["streams"] == 4
        assert stats["model_version"] == 0  # no swap happened
        if code == 0:
            assert stats["events"] >= 1
            assert stats["engine_batches"] <= stats["events"]

        # Network gateway: serve the model over localhost TCP with a
        # tenant config, classify through the blocking client.
        import socket
        import threading
        import time

        from repro.datasets import load_dataset
        from repro.serving import GatewayClient

        tenants_path = tmp_path / "tenants.json"
        tenants_path.write_text(json.dumps({
            "tenants": {"cli-vip": "premium"},
            "default_class": "batch",
        }))
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        gateway = threading.Thread(
            target=main,
            args=([
                "serve", "--model-dir", model_dir,
                "--listen", f"127.0.0.1:{port}",
                "--tenants", str(tenants_path),
                "--serve-seconds", "6",
            ],),
            daemon=True,
        )
        gateway.start()
        sample = load_dataset(data_path).inputs[0]
        deadline = time.monotonic() + 10.0
        while True:
            try:
                client = GatewayClient("127.0.0.1", port, tenant="cli-vip")
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        with client:
            assert client.slo_class == "premium"  # cfg.json applied
            wire = client.classify(sample, deadline_ms=0.0)
            assert wire.gesture >= 0
            assert wire.model_version == 0
            with GatewayClient("127.0.0.1", port, tenant="stranger") as other:
                assert other.slo_class == "batch"  # default_class applied
            stats = client.stats()
            assert stats["engine"]["requests"] == 1
            assert stats["tenants"]["cli-vip"]["delivered"] == 1
        gateway.join(timeout=30)  # drain its prints before the next section
        assert not gateway.is_alive()
        capsys.readouterr()

        # Deadline-aware serving: SLO scheduler + checkpoint watching.
        code = main([
            "serve", "--model-dir", model_dir, "--streams", "4", "--seed", "2",
            "--slo-ms", "50", "--adaptive-batch",
            "--watch-model", "--watch-every", "20",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        stats = json.loads(out[: out.index("}") + 1])
        assert stats["classification_errors"] == 0
        assert stats["model_swaps"] == 0  # checkpoint never overwritten
        assert stats["slo_ms"] == 50.0
        assert 1 <= stats["batch_limit"] <= 32
        # The flush-trigger keys stay in the JSON; nothing is held for a
        # deadline any more, so that trigger always reads 0.
        assert stats["deadline_flushes"] == 0
        if code == 0:
            # Any delivery under a scheduler records its queue latency.
            assert stats["queue_p95_ms"] is not None
            assert stats["depth_flushes"] + stats["slot_flushes"] >= 1

    def test_session_rejects_too_few_samples(self, tmp_path, capsys):
        data_path = str(tmp_path / "data.npz")
        model_dir = str(tmp_path / "model")
        assert main([
            "render", "--out", data_path, "--users", "2", "--gestures", "2",
            "--reps", "4", "--points", "32", "--seed", "3",
        ]) == 0
        assert main([
            "train", "--data", data_path, "--model-dir", model_dir,
            "--epochs", "2", "--batch-size", "16",
        ]) == 0
        capsys.readouterr()
        assert main([
            "session", "--data", data_path, "--model-dir", model_dir,
            "--user", "0", "--gestures", "99",
        ]) == 1
        assert "need 99" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
