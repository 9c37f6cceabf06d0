"""Each benchmark check passes on real output and fails on a corrupted copy.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np
import pytest

from evasionlab.features import FeatureSequence, feature_matrix, window_matrix
from evasionlab.neural import BiLstmModel, ModelConfig
from evasionlab.receiver import normalize_receive
from evasionlab.synth import EvasionLabel, SynthParams, build_labeled_corpus, generate_clean_flow
from evasionlab.training import TrainConfig, prepare_batch, train

import checks
from checks import CheckFailed
from tracer import NullTracer, Tracer
from workloads import traced_train

N_RANGE = (4, 8)
PAYLOAD = (16, 64)
SEED = 3


@pytest.fixture(scope="module")
def corpus():
    """One flow per class; flow g was built from seed SEED ^ g."""
    return build_labeled_corpus(1, SynthParams(), seed=SEED)


def flow_of(corpus, label):
    g = int(label)
    trace, got = corpus[g]
    assert got == g
    return trace, SEED ^ g


def clean_long(trace_seed):
    return generate_clean_flow(trace_seed, N_RANGE[1], PAYLOAD)


def test_delivery_accepts_real_flows_and_rejects_a_flipped_byte(corpus):
    for label in EvasionLabel:
        trace, trace_seed = flow_of(corpus, label)
        delivered = normalize_receive(trace).delivered
        n = checks.check_delivery(trace, delivered, clean_long(trace_seed), N_RANGE)
        assert N_RANGE[0] <= n <= N_RANGE[1]
        flipped = bytearray(delivered)
        flipped[len(flipped) // 2] ^= 0x01
        with pytest.raises(CheckFailed):
            checks.check_delivery(trace, bytes(flipped), clean_long(trace_seed), N_RANGE)


def test_delivery_rejects_a_truncated_stream(corpus):
    trace, trace_seed = flow_of(corpus, EvasionLabel.IP_TOS)
    delivered = normalize_receive(trace).delivered
    with pytest.raises(CheckFailed):
        checks.check_delivery(trace, delivered[:-1], clean_long(trace_seed), N_RANGE)


@pytest.mark.parametrize("label", sorted(checks.CHAFF_DROP_REASON))
def test_conservation_rejects_a_dropped_chaff_packet(corpus, label):
    trace, trace_seed = flow_of(corpus, label)
    report = normalize_receive(trace)
    n = checks.check_delivery(trace, report.delivered, clean_long(trace_seed), N_RANGE)
    checks.check_conservation(label, n, len(trace), report)

    short = replace(trace, packets=trace.packets[:-1])  # the last packet is chaff
    short_report = normalize_receive(short)
    assert short_report.delivered == report.delivered
    with pytest.raises(CheckFailed):
        checks.check_conservation(label, n, len(short), short_report)


def test_conservation_rejects_drops_on_a_class_without_chaff(corpus):
    trace, trace_seed = flow_of(corpus, EvasionLabel.IP_OPT)
    report = normalize_receive(trace)
    n = checks.check_delivery(trace, report.delivered, clean_long(trace_seed), N_RANGE)
    checks.check_conservation(EvasionLabel.IP_OPT, n, len(trace), report)
    report.dropped_ttl = 1
    with pytest.raises(CheckFailed):
        checks.check_conservation(EvasionLabel.IP_OPT, n, len(trace), report)


@pytest.mark.parametrize("n_rows, frame, want", [
    (4, 5, 1), (5, 5, 1), (7, 5, 1), (8, 5, 2), (10, 5, 2), (2, 3, 0), (9, 3, 3), (13, 7, 2), (9, 7, 1),
])
def test_window_count_formula_matches_window_matrix(n_rows, frame, want):
    assert checks.expected_windows(n_rows, frame) == want
    got = len(window_matrix(np.zeros((n_rows, 16), dtype=np.float32), frame))
    checks.check_window_count(n_rows, frame, got)
    with pytest.raises(CheckFailed):
        checks.check_window_count(n_rows, frame, got + 1)


def test_samples_check_rejects_a_relabeled_window_and_a_changed_row():
    rows = np.arange(5 * 16, dtype=np.float32).reshape(5, 16)
    written = [FeatureSequence(rows=rows, label=1), FeatureSequence(rows=rows + 1, label=2)]
    same = [FeatureSequence(rows=s.rows.copy(), label=s.label) for s in written]
    checks.check_samples_equal(written, same)
    relabeled = [same[0], FeatureSequence(rows=same[1].rows, label=3)]
    with pytest.raises(CheckFailed):
        checks.check_samples_equal(written, relabeled)
    changed_rows = same[1].rows.copy()
    changed_rows[2, 7] += 1.0
    with pytest.raises(CheckFailed):
        checks.check_samples_equal(written, [same[0], FeatureSequence(rows=changed_rows, label=2)])
    with pytest.raises(CheckFailed):
        checks.check_samples_equal(written, same[:1])


def test_feature_decoder_agrees_with_every_class(corpus):
    for trace, _ in corpus:
        checks.check_feature_dims([p.encode() for p in trace.packets], feature_matrix(trace))


@pytest.mark.parametrize("label, byte_index", [
    (EvasionLabel.TCP_OPT, -1),  # a payload byte: the TCP checksum no longer holds
    (EvasionLabel.IP_OPT, 1),  # the TOS byte
    (EvasionLabel.IP_TOS, 3),  # the low byte of the IP total length
])
def test_feature_decoder_rejects_a_flipped_byte(corpus, label, byte_index):
    trace, _ = flow_of(corpus, label)
    raw = [p.encode() for p in trace.packets]
    matrix = feature_matrix(trace)
    corrupted = bytearray(raw[1])
    corrupted[byte_index] ^= 0x04
    with pytest.raises(CheckFailed):
        checks.check_feature_dims([raw[0], bytes(corrupted), *raw[2:]], matrix)


def test_feature_decoder_rejects_a_dropped_packet(corpus):
    trace, _ = flow_of(corpus, EvasionLabel.IP_FRAG)
    raw = [p.encode() for p in trace.packets]
    with pytest.raises(CheckFailed):
        checks.check_feature_dims(raw[:-1], feature_matrix(trace))


def test_internet_checksum_matches_stored_ip_checksums(corpus):
    for trace, _ in corpus:
        for pkt in trace.packets:
            zeroed = bytearray(pkt.ip.encode())
            zeroed[10:12] = b"\x00\x00"
            computed = checks.internet_checksum(bytes(zeroed))
            assert (computed == pkt.ip.checksum) == pkt.ip.checksum_valid()


def test_feature_decoder_reads_an_all_ones_tcp_checksum_as_invalid():
    """A chaff whose valid checksum is 0x0000 carries 0xFFFF after the flip:
    the other form of one's complement zero. Found at corpus seed 209."""
    flows = build_labeled_corpus(12, SynthParams(), seed=(209 << 24) | (35 << 4),
                                 n_packets_range=N_RANGE, payload_len_range=PAYLOAD)
    trace, label = flows[32]
    chaff = trace.packets[5]
    assert label == EvasionLabel.TCP_CHAFF and chaff.tcp.checksum == 0xFFFF
    assert checks.decoded_dims(chaff.encode())[4] == 0.0
    checks.check_feature_dims([p.encode() for p in trace.packets], feature_matrix(trace))


def test_regrouped_check_rejects_a_dropped_packet_and_a_changed_flow(corpus):
    flows = [trace for trace, _ in corpus]
    checks.check_regrouped(flows, flows, feature_matrix)
    short = replace(flows[3], packets=flows[3].packets[:-1])
    with pytest.raises(CheckFailed):
        checks.check_regrouped(flows, [*flows[:3], short, *flows[4:]], feature_matrix)
    with pytest.raises(CheckFailed):
        checks.check_regrouped(flows, flows[:-1], feature_matrix)
    tos = flows[0].packets[1]
    swapped = replace(flows[0], packets=[flows[0].packets[0],
                                         replace(tos, ip=replace(tos.ip, tos=8)).with_checksums(),
                                         *flows[0].packets[2:]])
    with pytest.raises(CheckFailed):
        checks.check_regrouped(flows, [swapped, *flows[1:]], feature_matrix)


def test_verdict_check_rejects_a_moved_probability():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    checks.check_verdicts_agree(probs, probs + 1e-12, tol=1e-9)
    moved = probs.copy()
    moved[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_verdicts_agree(probs, moved, tol=1e-9)
    flipped = probs[:, ::-1].copy()
    with pytest.raises(CheckFailed):
        checks.check_verdicts_agree(probs, flipped, tol=1.0)


def test_accuracy_and_loss_checks():
    y = np.array([0, 0, 1, 1, 2, 2])
    assert checks.macro_accuracy(y, y) == 1.0
    assert checks.macro_accuracy(y, np.array([0, 1, 1, 1, 2, 0])) == pytest.approx(2 / 3)
    checks.check_floor(0.95, 0.9, "accuracy")
    with pytest.raises(CheckFailed):
        checks.check_floor(0.85, 0.9, "accuracy")
    checks.check_loss_falls([2.0, 1.9, 1.8, 1.0, 0.9, 0.8])
    with pytest.raises(CheckFailed):
        checks.check_loss_falls([1.0, 1.0, 1.0, 1.0, 1.1, 1.2])


@pytest.fixture(scope="module")
def tiny_training(corpus):
    samples = [FeatureSequence(rows=w, label=label) for trace, label in corpus
               for w in window_matrix(feature_matrix(trace), 3)]
    config = TrainConfig(model=ModelConfig(hidden=4, frame=3, layers=2), batch_size=4,
                         epochs=2, seed=SEED)
    return samples, config


def test_traced_loop_reproduces_train_bit_for_bit(tiny_training):
    samples, config = tiny_training
    reference, history = train(samples, config)
    tracer = Tracer()
    traced, traced_history = traced_train(samples, config, tracer)
    assert traced_history == history
    checks.check_same(traced.flatten(), reference.flatten(), "parameters")
    names = {span[0] for span in tracer.spans}
    assert {"training.prepare_batch", "neural.forward", "neural.backward", "optim.step"} <= names


def test_parameter_check_rejects_one_perturbed_parameter(tiny_training):
    samples, config = tiny_training
    params = traced_train(samples, config, NullTracer())[0].flatten()
    perturbed = params.copy()
    perturbed[len(perturbed) // 3] = np.nextafter(perturbed[len(perturbed) // 3], np.inf)
    with pytest.raises(CheckFailed):
        checks.check_same(params, perturbed, "parameters")


def test_gradient_check_rejects_a_perturbed_entry_and_accepts_round_off(tiny_training):
    samples, _ = tiny_training
    model = BiLstmModel.initialize(ModelConfig(hidden=3, frame=3, layers=2), SEED)
    x, mask, labels = prepare_batch(samples[:2], 3, None)
    eps = 1e-4
    numeric, loss = checks.central_differences(model, x, mask, labels, eps)
    analytic = model.backward(model.forward(x, mask)[1], labels)
    assert checks.check_gradient(analytic, numeric, loss, eps, rtol=1e-4) < 1e-4

    big = int(np.argmax(np.abs(analytic)))
    off = analytic.copy()
    off[big] *= 1.0 + 1e-3
    with pytest.raises(CheckFailed):
        checks.check_gradient(off, numeric, loss, eps, rtol=1e-4)
    # an entry too small for a relative error: round-off passes, a real error does not
    floor = checks.ROUNDOFF_MARGIN * np.finfo(np.float64).eps * loss / eps
    tiny = analytic.copy()
    tiny[big] = 1e-9
    near = numeric.copy()
    near[big] = 1e-9 + floor / 2
    checks.check_gradient(tiny, near, loss, eps, rtol=1e-4)
    near[big] = 1e-9 + 4 * floor
    with pytest.raises(CheckFailed):
        checks.check_gradient(tiny, near, loss, eps, rtol=1e-4)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.run_id = "round-1"
    with tracer.span("round"):
        with tracer.span("neural.forward"):
            pass
    (outer_name, o_start, o_end, o_parent, _), (inner_name, i_start, i_end, i_parent, run) = tracer.spans
    assert (outer_name, o_parent, inner_name, i_parent, run) == ("round", -1, "neural.forward", 0, "round-1")
    self_times = tracer.self_times()["round-1"]
    assert self_times["round"] == pytest.approx((o_end - o_start) - (i_end - i_start))
    assert self_times["neural.forward"] == pytest.approx(i_end - i_start)
