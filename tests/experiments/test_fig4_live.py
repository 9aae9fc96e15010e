"""FIG4 on the live backends: same rules, measured instead of simulated.

The acceptance bar for the process substrate: the run completes with the
unmodified Figure 5 rule set, a SIGKILL-injected crash loses zero tasks,
and throughput returns to contract via ``CheckRateLow``.
"""

import io
import threading

import pytest

from repro.experiments.fig4 import main as fig4_main
from repro.experiments.fig4_live import (
    Fig4LiveConfig,
    Fig4ShardedConfig,
    make_backend,
    render_fig4_live,
    render_fig4_sharded,
    run_fig4_live,
    run_fig4_sharded,
)
from repro.obs import Telemetry
from repro.obs.explain import main as explain_main


def quick_config(backend: str, **overrides) -> Fig4LiveConfig:
    """A trimmed scenario: same phases, a couple of wall-clock seconds."""
    defaults = dict(
        backend=backend,
        contract_low=30.0,
        contract_high=90.0,
        task_work=0.03,
        starve_rate=15.0,
        feed_rate=70.0,
        starve_duration=0.4,
        total_tasks=120,
        crash_after=40,
        control_period=0.15,
    )
    defaults.update(overrides)
    return Fig4LiveConfig(**defaults)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend(Fig4LiveConfig(backend="quantum"))

    def test_make_backend_shapes(self):
        for backend in ("thread", "process"):
            farm = make_backend(Fig4LiveConfig(backend=backend))
            try:
                assert farm.num_workers == 1
            finally:
                farm.shutdown()


class TestThreadBackend:
    def test_thread_run_completes_under_the_rules(self):
        r = run_fig4_live(quick_config("thread"))
        assert r.backend == "thread"
        assert r.zero_loss()
        assert r.completed == r.config.total_tasks
        assert r.grew(), "CheckRateLow must have added workers"
        assert r.starved_first(), "phase 1 starvation precedes growth"
        assert r.crashes == 0  # crash injection is a process-only concept


class TestProcessBackend:
    def test_process_run_survives_sigkill(self):
        """fig4 --backend=process: crash mid-stream, zero loss, recovery
        through the same rule set."""
        r = run_fig4_live(quick_config("process"))
        assert r.backend == "process"
        assert r.crashes >= 1, "the SIGKILL must actually have landed"
        assert r.zero_loss(), "at-least-once replay lost a task"
        assert r.completed == r.config.total_tasks
        assert r.grew(), "CheckRateLow must have restored/grown capacity"
        assert r.dead_letters == 0

    def test_process_run_without_crash(self):
        r = run_fig4_live(quick_config("process", inject_crash=False))
        assert r.crashes == 0
        assert r.zero_loss()
        assert r.grew()


class TestCoordinatorKill:
    def test_supervisor_recovers_every_in_flight_task(self):
        """fig4 --kill-coordinator: the whole coordinator stack dies
        mid-feed and the next incarnation finishes the stream."""
        cfg = quick_config("thread", kill_coordinator=True, total_tasks=80, crash_after=30)
        r = run_fig4_live(cfg)
        assert r.failover_story_ok()
        assert r.final_epoch >= 1
        text = render_fig4_live(r)
        assert "coordinator failovers (supervisor)" in text
        assert "self-healing story holds" in text

    def test_kill_coordinator_excludes_with_security(self):
        cfg = Fig4LiveConfig(backend="thread", kill_coordinator=True, with_security=True)
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_fig4_live(cfg)


class TestShardedHierarchy:
    def test_skewed_feed_is_rebalanced_without_loss(self):
        r = run_fig4_sharded(Fig4ShardedConfig(total_tasks=120))
        assert r.zero_loss()
        assert r.rebalanced()
        assert "first rebalance at t=" in render_fig4_sharded(r)

    def test_in_quota_tenants_see_no_rejects(self):
        r = run_fig4_sharded(Fig4ShardedConfig(tenants=3, contract_low=2.0, total_tasks=120))
        assert r.zero_loss()
        rejected = {row[0]: row[4] for row in r.tenant_stats}
        assert rejected and not any(rejected.values()), rejected


class TestRendering:
    def test_render_mentions_fault_columns_for_process(self):
        r = run_fig4_live(quick_config("process", total_tasks=60, crash_after=20))
        text = render_fig4_live(r)
        assert "process backend" in text
        assert "task dispatches replayed" in text
        assert "zero loss" in text

    def test_cli_flag_runs_thread_backend(self, capsys):
        # the full CLI path, but on the quicker thread substrate
        assert fig4_main(["--backend", "thread"]) == 0
        out = capsys.readouterr().out
        assert "FIG4-LIVE" in out and "thread backend" in out


def _http_threads():
    return [t for t in threading.enumerate() if t.name.startswith("telemetry-http-")]


def _explain(argv):
    buf = io.StringIO()
    code = explain_main(argv, out=buf)
    return code, buf.getvalue()


class TestCharacterization:
    """The paths every live mode shares: export, fault, SLOs, serving."""

    def test_thread_cli_exports_an_explainable_audit(self, tmp_path, capsys):
        trace, metrics = tmp_path / "audit.jsonl", tmp_path / "metrics.prom"
        argv = ["--backend", "thread", "--trace-out", str(trace),
                "--metrics-out", str(metrics)]
        assert fig4_main(argv) == 0
        capsys.readouterr()
        assert "repro_" in metrics.read_text()
        code, out = _explain([str(trace)])
        assert code == 0
        assert f" {Fig4LiveConfig().total_tasks} task(s)" in out
        code, out = _explain([str(trace), "--slo"])
        assert code == 0, out

    def test_sharded_tenant_cli_exports_an_explainable_audit(self, tmp_path, capsys):
        trace, metrics = tmp_path / "audit.jsonl", tmp_path / "metrics.prom"
        argv = ["--backend", "thread", "--shards", "2", "--tenants", "3",
                "--trace-out", str(trace), "--metrics-out", str(metrics)]
        assert fig4_main(argv) == 0
        capsys.readouterr()
        assert "repro_tenant_" in metrics.read_text()
        assert _explain([str(trace)])[0] == 0
        # task ids restart per shard, so count the tasks tenant by tenant
        narrated = 0
        for tenant in ("tenant0", "tenant1", "tenant2"):
            code, out = _explain([str(trace), "--tenant", tenant])
            assert code == 0, out
            narrated += int(out.split(" — ", 1)[1].split(" task(s)", 1)[0])
        assert narrated == Fig4ShardedConfig().total_tasks

    def test_dist_run_survives_a_severed_connection(self):
        r = run_fig4_live(quick_config("dist", total_tasks=80, crash_after=30))
        assert r.crashes >= 1, "the connection cut must actually have landed"
        assert r.zero_loss()
        assert r.dead_letters == 0

    def test_thread_run_with_telemetry_tells_the_slo_story(self):
        r = run_fig4_live(quick_config("thread"), telemetry=Telemetry())
        assert r.slo_story_ok()
        assert r.zero_loss()

    def test_served_run_reports_its_url_and_closes_the_server(self):
        r = run_fig4_live(quick_config("thread", total_tasks=60, serve_telemetry=True))
        assert r.telemetry_url.startswith("http://127.0.0.1:")
        assert r.zero_loss()
        assert not _http_threads()


class TestBuildTeardown:
    def test_failed_build_closes_the_server_it_started(self):
        cfg = Fig4LiveConfig(backend="quantum", serve_telemetry=True)
        with pytest.raises(ValueError):
            run_fig4_live(cfg)
        assert not _http_threads()

    def test_sharded_run_serves_telemetry(self, capsys):
        r = run_fig4_sharded(Fig4ShardedConfig(total_tasks=40, serve_telemetry=True))
        assert r.zero_loss()
        assert "live telemetry on http://127.0.0.1:" in capsys.readouterr().out
        assert not _http_threads()


class TestCliRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "thread", "--shards", "2", "--with-security"],
            ["--backend", "thread", "--shards", "2", "--no-slo"],
            ["--backend", "thread", "--shards", "2", "--kill-coordinator"],
            ["--backend", "thread", "--duration", "10"],
            ["--backend", "dist", "--with-coordinator"],
            ["--tenants", "3"],
            ["--serve-telemetry"],
        ],
    )
    def test_flag_the_run_would_ignore_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            fig4_main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
