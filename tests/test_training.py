"""Training-loop tests on a tiny in-memory dataset."""

import copy
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import featalign.training as training_mod
from featalign import tensor as T
from featalign.cli import main as cli_main
from featalign.bench.dataset_io import read_split
from featalign.errors import DataFault, NumericalFault
from featalign.losses import LossConfig, total_loss
from featalign.network import NetworkConfig, build_network, forward_pyramid, load_network
from featalign.training import TrainConfig, history_csv, train_network


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    rc = cli_main(
        [
            "generate", "--out", str(root), "--seed", "5", "--frames", "4",
            "--candidates", "3", "--val-candidates", "3", "--pairs", "4",
            "--n-pos", "32", "--n-neg", "32", "--size", "32",
        ]
    )
    assert rc == 0
    return root


def small_config(**kw):
    base = dict(
        epochs=2,
        lr=1e-3,
        network=NetworkConfig(descriptor_dim=4, pyramid_levels=2, base_width=4, seed=3),
        loss=LossConfig(gn_weight=0.1, vicinity_radius=2.0),
    )
    base.update(kw)
    return TrainConfig(**base)


def assert_same_weights(a, b):
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert a.params[name].tobytes() == b.params[name].tobytes(), name


def loss_columns(history):
    """The log CSV without its last column, ``val_auc``."""
    return [line.rsplit(",", 1)[0] for line in history_csv(history).splitlines()]


class TestTrainNetwork:
    def test_two_epochs_produce_finite_history(self, tiny_dataset):
        split = read_split(tiny_dataset / "train")
        weights, history = train_network(split, None, small_config())
        assert len(history) == 2
        for row in history:
            assert np.isfinite(row.total)
            assert np.isfinite(row.contrastive)
            assert np.isfinite(row.gauss_newton)
        assert weights.parameter_count() > 0

    def test_deterministic_from_seed(self, tiny_dataset):
        split = read_split(tiny_dataset / "train")
        w1, h1 = train_network(split, None, small_config())
        w2, h2 = train_network(split, None, small_config())
        assert_same_weights(w1, w2)
        assert history_csv(h1) == history_csv(h2)

    def test_validation_only_logs(self, tiny_dataset):
        train_split = read_split(tiny_dataset / "train")
        val_split = read_split(tiny_dataset / "val")
        cfg = small_config(epochs=2)
        weights, history = train_network(train_split, val_split, cfg)
        assert [np.isfinite(r.val_auc) for r in history] == [False, True]
        plain, plain_history = train_network(train_split, None, cfg)
        assert all(np.isnan(r.val_auc) for r in plain_history)
        assert_same_weights(weights, plain)
        assert loss_columns(history) == loss_columns(plain_history)

    def test_returns_last_epoch_whatever_validation_reports(self, tiny_dataset, monkeypatch):
        train_split = read_split(tiny_dataset / "train")
        val_split = read_split(tiny_dataset / "val")
        cfg = small_config(epochs=2)
        validated = []

        def record(split, weights):
            validated.append(copy.deepcopy(weights))
            return 0.25

        monkeypatch.setattr(training_mod, "_validation_auc", record)
        weights, history = train_network(train_split, val_split, cfg)
        assert len(validated) == 1
        assert history[-1].val_auc == 0.25
        assert all(np.isnan(r.val_auc) for r in history[:-1])
        plain, _ = train_network(train_split, None, cfg)
        assert_same_weights(weights, plain)
        assert_same_weights(validated[0], plain)

    def test_split_without_candidates_is_not_validated(self, tiny_dataset, monkeypatch):
        train_split = read_split(tiny_dataset / "train")
        val_split = replace(read_split(tiny_dataset / "val"), candidates=[])
        monkeypatch.setattr(training_mod, "_validation_auc", lambda split, weights: pytest.fail("validated"))
        _, history = train_network(train_split, val_split, small_config(epochs=1))
        assert np.isnan(history[-1].val_auc)

    def test_nan_loss_aborts_with_diagnostics(self, tiny_dataset, monkeypatch):
        split = read_split(tiny_dataset / "train")

        def poisoned(*args, **kwargs):
            return T.Tensor(np.float64("nan")), {"contrastive": np.nan, "gauss_newton": np.nan}

        monkeypatch.setattr(training_mod, "total_loss", poisoned)
        with pytest.raises(NumericalFault, match="epoch 0"):
            train_network(split, None, small_config())

    def test_empty_split_fault(self, tiny_dataset):
        split = read_split(tiny_dataset / "val")  # no correspondences stored
        with pytest.raises(DataFault):
            train_network(split, None, small_config())


class TestTrainingStepTape:
    def test_default_network_step_records_215_nodes(self, tiny_dataset):
        # Each GN loss level records one derivative map and one taped sample
        # of it; a change to the taped op sequence shows up as a different
        # count.
        split = read_split(tiny_dataset / "train")
        batch = split.correspondences[0]
        config = NetworkConfig()
        tape = T.Tape()
        taped = {n: tape.leaf(p) for n, p in build_network(config).params.items()}
        pyr_a = forward_pyramid(taped, split.frames[batch.frame_a].image[:, :, None], config)
        pyr_b = forward_pyramid(taped, split.frames[batch.frame_b].image[:, :, None], config)
        total_loss(pyr_a, pyr_b, batch, LossConfig(), np.random.default_rng(0))
        assert len(tape) == 215


def training_step_tape(split, run_backward: bool):
    """Weak reference to the tape of one default-network training step."""
    batch = split.correspondences[0]
    config = NetworkConfig()
    tape = T.Tape()
    taped = {n: tape.leaf(p) for n, p in build_network(config).params.items()}
    pyr_a = forward_pyramid(taped, split.frames[batch.frame_a].image[:, :, None], config)
    pyr_b = forward_pyramid(taped, split.frames[batch.frame_b].image[:, :, None], config)
    loss, _ = total_loss(pyr_a, pyr_b, batch, LossConfig(), np.random.default_rng(0))
    if run_backward:
        tape.backward(loss)
        assert len(tape) == 215
        with pytest.raises(ValueError):
            tape.backward(loss)
    return weakref.ref(tape)


class TestTapeLifetime:
    # Reference counting alone must free a step's graph: a backward closure
    # that captured a Tensor (which references its tape) would make the tape
    # a cycle that lives until the cyclic collector runs.
    @pytest.mark.parametrize("run_backward", [True, False], ids=["backward", "forward_only"])
    def test_step_tape_freed_without_cyclic_gc(self, tiny_dataset, run_backward):
        split = read_split(tiny_dataset / "train")
        gc.collect()
        gc.disable()
        try:
            tape_ref = training_step_tape(split, run_backward)
            assert tape_ref() is None
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        tape = T.Tape()
        x = tape.leaf(np.arange(3.0))
        loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [0.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [0.0, 2.0, 4.0])


class TestTrainCLI:
    def test_one_epoch_writes_loadable_weights(self, tiny_dataset, tmp_path):
        out = tmp_path / "w.gnnw"
        rc = cli_main(
            [
                "train", "--dataset", str(tiny_dataset), "--out", str(out),
                "--epochs", "1", "--base-width", "4", "--descriptor-dim", "4",
                "--levels", "2", "--val-candidates", "0",
            ]
        )
        assert rc == 0
        weights = load_network(out)
        assert weights.config.descriptor_dim == 4
        log = out.with_suffix(".log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,total,contrastive,gauss_newton,val_auc"
        assert len(log) == 2

    def test_tiny_lr_accepted_and_echoed(self, tiny_dataset, tmp_path):
        import json

        out = tmp_path / "w.gnnw"
        rc = cli_main(
            [
                "train", "--dataset", str(tiny_dataset), "--out", str(out),
                "--epochs", "1", "--lr", "1e-6", "--base-width", "4",
                "--descriptor-dim", "4", "--levels", "2", "--val-candidates", "0",
            ]
        )
        assert rc == 0
        echo = json.loads((tmp_path / "w.run_config.json").read_text())
        assert echo["arguments"]["lr"] == 1e-6

    @pytest.mark.parametrize("val_candidates, expected", [(2, 2), (99, 3), (0, None)])
    def test_validates_once_on_the_first_val_candidates(self, tiny_dataset, tmp_path, monkeypatch,
                                                       val_candidates, expected):
        seen = []
        monkeypatch.setattr(training_mod, "_validation_auc",
                            lambda split, weights: seen.append(len(split.candidates)) or 0.5)
        out = tmp_path / "w.gnnw"
        rc = cli_main(
            [
                "train", "--dataset", str(tiny_dataset), "--out", str(out),
                "--epochs", "2", "--base-width", "4", "--descriptor-dim", "4",
                "--levels", "2", "--val-candidates", str(val_candidates),
            ]
        )
        assert rc == 0
        assert seen == ([] if expected is None else [expected])
        rows = out.with_suffix(".log.csv").read_text().strip().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["nan", "nan" if expected is None else "0.5"]

    def test_twenty_epochs_mostly_decreasing(self, tmp_path):
        # Scripted reference behavior on the default synthetic set: the
        # training loss strictly decreases in at least 15 of 20 epochs.
        dataset = tmp_path / "ds"
        assert cli_main(["generate", "--out", str(dataset), "--seed", "2"]) == 0
        out = tmp_path / "w.gnnw"
        rc = cli_main(
            [
                "train", "--dataset", str(dataset), "--out", str(out),
                "--epochs", "20", "--val-candidates", "0",
            ]
        )
        assert rc == 0
        rows = out.with_suffix(".log.csv").read_text().strip().splitlines()[1:]
        totals = [float(r.split(",")[1]) for r in rows]
        assert len(totals) == 20
        decreases = sum(1 for a, b in zip(totals, totals[1:]) if b < a)
        assert decreases >= 15, f"loss decreased in only {decreases}/19 transitions"
