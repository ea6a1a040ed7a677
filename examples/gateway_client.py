"""Network gateway: remote edge clients streaming clouds over TCP.

The paper's deployment splits sensing from serving: a radar host
segments gestures and a back end classifies them.  PR 1–2 built the
in-process serving layer; this example pushes it across the host
boundary with :class:`~repro.serving.GatewayServer` — the same engine
and adaptive batch scheduler, fronted by an asyncio socket server with
per-tenant SLO classes:

1. fit (or load) a model, mint a throwaway self-signed certificate,
   and start a **TLS** gateway on a background thread, with ``premium``
   / ``standard`` / ``batch`` tiers, two assigned tenants, and
   **bearer-token auth** (the config stores salted hashes, never the
   secrets — see ``examples/provision_tenant.py``);
2. connect two blocking :class:`~repro.serving.GatewayClient` edge
   devices — a premium wall-panel and a batch backfill job — each
   pinning the server certificate and presenting its token, and stream
   gesture clouds at the server (float32 on the wire, ~3 KB per cloud);
3. verify a gateway round trip is *byte-identical* to in-process
   inference on the same (wire-quantised) cloud — TLS changes no bytes;
4. show a stolen/wrong token dying with ``auth_failed`` before any
   request is admitted, without disturbing the authed tenants;
5. print the server's per-tenant snapshot: batching, SLO classes, and
   who got shed (nobody, at this gentle load).

Run:  python examples/gateway_client.py
"""

import pathlib
import tempfile
import time

import numpy as np

from repro import GesturePrint, GesturePrintConfig, TrainConfig, build_selfcollected
from repro.serving import GatewayClient, GatewayServer, InferenceEngine, ModelRegistry
from repro.serving.gateway import (
    BackgroundGateway,
    GatewayError,
    TenantAuthenticator,
    TenantDirectory,
    client_ssl_context,
    generate_self_signed_cert,
    hash_token,
    quantise_sample,
    server_ssl_context,
)

NUM_POINTS = 64
PANEL_TOKEN = "panel-secret-token"        # in production: secrets.token_urlsafe
BACKFILL_TOKEN = "backfill-secret-token"


def fit_small_system() -> GesturePrint:
    dataset = build_selfcollected(
        num_users=4, num_gestures=4, reps=10,
        environments=("office",), num_points=NUM_POINTS, seed=42,
    )
    config = GesturePrintConfig.small(
        training=TrainConfig(epochs=14, batch_size=32, learning_rate=3e-3)
    )
    return GesturePrint(config).fit(
        dataset.inputs, dataset.gesture_labels, dataset.user_labels
    )


def main() -> None:
    registry = ModelRegistry()
    checkpoint = pathlib.Path(tempfile.gettempdir()) / "repro-gateway-model"
    t0 = time.time()
    system = registry.get_or_fit("gateway-demo", fit_small_system, directory=checkpoint)
    print(f"[server] model ready in {time.time() - t0:.1f}s "
          "(re-run to load the checkpoint instead)")

    # Gesture clouds to replay from the "edge": any held-out samples do.
    dataset = build_selfcollected(
        num_users=4, num_gestures=4, reps=3,
        environments=("office",), num_points=NUM_POINTS, seed=7,
    )
    clouds = dataset.inputs

    # Transport + identity: a throwaway self-signed certificate (its
    # cert doubles as the clients' trust pin) and per-tenant bearer
    # tokens stored as salted hashes.
    certdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-gateway-tls-"))
    cert, key = generate_self_signed_cert(certdir)
    tenants = TenantDirectory(
        assignments={"wall-panel-7": "premium", "nightly-backfill": "batch"},
        auth=TenantAuthenticator({
            "wall-panel-7": hash_token(PANEL_TOKEN),
            "nightly-backfill": hash_token(BACKFILL_TOKEN),
        }),
    )
    server = GatewayServer(
        system, tenants=tenants, slo_ms=50.0,
        ssl_context=server_ssl_context(cert, key),
    )
    pinned = client_ssl_context(cert)
    with BackgroundGateway(server) as (host, port):
        print(f"[server] TLS gateway listening on {host}:{port} "
              f"(classes: {', '.join(sorted(tenants.classes))})")

        with GatewayClient(host, port, tenant="wall-panel-7",
                           token=PANEL_TOKEN, ssl_context=pinned,
                           client="edge-demo") as panel:
            print(f"[panel] HELLO -> class {panel.slo_class} "
                  f"(SLO {panel.slo_ms:.0f} ms), model v{panel.model_version}")

            # Interactive tier: one synchronous round trip per gesture.
            for cloud in clouds[:6]:
                t0 = time.perf_counter()
                wire = panel.classify(cloud, deadline_ms=0.0)
                rtt_ms = (time.perf_counter() - t0) * 1e3
                print(f"[panel] gesture #{wire.gesture} "
                      f"(p={wire.gesture_probs[wire.gesture]:.2f}) by "
                      f"user #{wire.user} — {rtt_ms:.1f} ms round trip")

            # The gateway promise: the posteriors that crossed the wire
            # are byte-identical to an in-process predict of the same
            # (float32-quantised) cloud.
            local = InferenceEngine(system).predict_one(quantise_sample(clouds[0]))
            wire = panel.classify(clouds[0], deadline_ms=0.0)
            identical = np.array_equal(wire.gesture_probs, local.gesture_probs) and \
                np.array_equal(wire.user_probs, local.user_probs)
            print(f"[panel] TLS wire result byte-identical to in-process: {identical}")

            # Auth is checked in HELLO, before any SUBMIT: a stolen or
            # mistyped token never gets a queue seat.
            try:
                GatewayClient(host, port, tenant="wall-panel-7",
                              token="stolen-token", ssl_context=pinned)
            except GatewayError as error:
                print(f"[intruder] rejected at handshake: {error.code}")

            # Throughput tier: a backfill job pipelines a whole batch of
            # clouds without waiting; the server micro-batches them.
            with GatewayClient(host, port, tenant="nightly-backfill",
                               token=BACKFILL_TOKEN, ssl_context=pinned,
                               client="backfill-demo") as backfill:
                ids = [backfill.submit(cloud) for cloud in clouds]
                outcomes = backfill.collect_all(ids)
                print(f"[backfill] {len(outcomes)} clouds classified "
                      f"as class {backfill.slo_class}")

            snap = panel.stats()
            engine = snap["engine"]
            print(f"[server] {engine['requests']} requests -> "
                  f"{engine['batches']} batches "
                  f"(mean {engine['mean_batch']:.1f}); "
                  f"queue p95 {snap['scheduler']['queue_p95_ms']:.1f} ms")
            for tenant_id, counters in sorted(snap["tenants"].items()):
                print(f"[server]   {tenant_id} [{counters['slo_class']}]: "
                      f"{counters['delivered']} delivered, "
                      f"{counters['shed']} shed, "
                      f"{counters['rejected']} rejected")
    print("[server] gateway stopped")


if __name__ == "__main__":
    main()
