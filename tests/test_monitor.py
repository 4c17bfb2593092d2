"""The live run monitor (repro.obs.monitor): the atomically-rewritten
status file, the Prometheus text exposition, and the ``repro top``
terminal view."""

import glob
import json
import time
import urllib.request

from repro.core import ZSim
from repro.config import small_test_system
from repro.obs import RunMonitor, prometheus_text, render_top
from repro.obs.monitor import STATUS_VERSION
from repro.workloads import mt_workload

INSTRS = 20_000


def _build(num_cores=4):
    config = small_test_system(num_cores=num_cores)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=INSTRS))


class TestStatusFile:
    def test_run_publishes_and_finishes_the_status_file(self, tmp_path):
        path = str(tmp_path / "status.json")
        sim = _build()
        sim.monitor = RunMonitor(path=path, target_instrs=INSTRS,
                                 run_id=sim.flight.run_id)
        sim.run()
        with open(path) as fh:
            status = json.load(fh)
        assert status["version"] == STATUS_VERSION
        assert status["state"] == "done"
        assert status["progress"] == 1.0
        assert status["eta_s"] == 0.0
        assert status["backend"] == "serial"
        assert status["run_id"] == sim.flight.run_id
        assert status["interval"] > 0
        assert status["instrs"] > 0
        assert status["target_instrs"] == INSTRS
        # Atomic writes: no torn temp files survive the run.
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_failed_run_publishes_terminal_state(self, tmp_path):
        from repro.errors import RunInterrupted
        import pytest
        path = str(tmp_path / "status.json")
        sim = _build()
        sim.monitor = RunMonitor(path=path, target_instrs=INSTRS)
        sim.request_stop("unit test")
        with pytest.raises(RunInterrupted):
            sim.run()
        with open(path) as fh:
            status = json.load(fh)
        assert status["state"] == "stopped"

    def test_pathless_monitor_keeps_status_in_memory(self):
        sim = _build()
        sim.monitor = RunMonitor(target_instrs=INSTRS)
        sim.run()
        assert sim.monitor.status["state"] == "done"
        assert sim.monitor.status["progress"] == 1.0


class TestPrometheusText:
    STATUS = {
        "run_id": "abcd1234", "backend": "process", "state": "running",
        "interval": 7, "cycle": 70_000, "instrs": 12_345,
        "target_instrs": 100_000, "progress": 0.12,
        "intervals_per_s": 3.5, "instrs_per_s": 41_000.0,
        "eta_s": 2.1, "elapsed_s": 0.3, "spec_hit_rate": 0.93,
        "recoveries": 1, "demotions": 0,
        "workers": {"0": {"last_event": "hb_slack", "age_s": 0.2}},
    }

    def test_exposition_carries_the_gauges(self):
        text = prometheus_text(self.STATUS)
        assert 'repro_run_info{run_id="abcd1234",backend="process"' \
            in text
        assert "repro_state 0" in text
        assert "repro_progress 0.12" in text
        assert "repro_spec_hit_rate 0.93" in text
        assert 'repro_worker_age_seconds{worker="0"} 0.2' in text
        assert text.endswith("\n")

    def test_none_values_are_omitted(self):
        status = dict(self.STATUS, spec_hit_rate=None, eta_s=None)
        text = prometheus_text(status)
        assert "repro_spec_hit_rate" not in text
        assert "repro_eta_seconds" not in text

    def test_terminal_states_are_coded(self):
        for state, code in (("done", 1), ("stopped", 2), ("failed", 3)):
            text = prometheus_text(dict(self.STATUS, state=state))
            assert "repro_state %d" % code in text


class TestStatusServer:
    def test_ephemeral_port_serves_metrics_and_json(self):
        sim = _build()
        monitor = RunMonitor(port=0, target_instrs=INSTRS)
        sim.monitor = monitor
        assert monitor.port  # 0 resolved to a real ephemeral port
        try:
            monitor.update(sim, 1, 10_000)
            base = "http://127.0.0.1:%d" % monitor.port
            with urllib.request.urlopen(base + "/metrics") as resp:
                body = resp.read().decode()
            assert "repro_state 0" in body
            assert "repro_interval 1" in body
            with urllib.request.urlopen(base + "/") as resp:
                status = json.loads(resp.read().decode())
            assert status["interval"] == 1
        finally:
            monitor.close()
            sim.backend.shutdown()

    def test_close_is_idempotent(self):
        monitor = RunMonitor(port=0)
        monitor.close()
        monitor.close()


class TestRenderTop:
    STATUS = dict(TestPrometheusText.STATUS,
                  pid=4242, updated_monotonic=1000.0,
                  demotion_path="")

    def test_frame_shows_identity_progress_and_rates(self):
        text = render_top(self.STATUS, now=1000.5)
        assert "run abcd1234 (pid 4242)" in text
        assert "backend: process" in text
        assert " 12%" in text
        assert "interval 7" in text
        assert "speculation hit rate 93%" in text
        assert "recoveries 1" in text
        assert "STALE" not in text

    def test_stale_running_status_is_flagged(self):
        text = render_top(self.STATUS, now=1100.0)
        assert "STALE?" in text
        done = dict(self.STATUS, state="done")
        assert "STALE" not in render_top(done, now=1100.0)

    def test_demotion_path_and_workers_render(self):
        status = dict(self.STATUS, demotion_path="process->serial",
                      demotions=1)
        text = render_top(status, now=1000.5)
        assert "(process->serial)" in text
        assert "workers: 0:hb_slack 0.2s" in text


class TestCLITop:
    def test_top_once_exits_by_state(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "status.json"
        status = dict(TestRenderTop.STATUS, state="done",
                      updated_monotonic=time.monotonic())
        path.write_text(json.dumps(status))
        assert main(["top", str(path), "--once"]) == 0
        assert "run abcd1234" in capsys.readouterr().out
        path.write_text(json.dumps(dict(status, state="failed")))
        assert main(["top", str(path), "--once"]) == 1

    def test_top_missing_file_is_a_clean_error(self, tmp_path):
        import pytest
        from repro.cli import main
        with pytest.raises(SystemExit, match="status file"):
            main(["top", str(tmp_path / "nope.json"), "--once"])
