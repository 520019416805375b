"""Guards that no bad input through the CLI reaches, because a check runs
first or only a library caller can break them: each raises
:class:`ValidationError` with its own message when called through a public
function."""

import io
import re

import numpy as np
import pytest

from conftest import make_table
from toxicspans.arena import Arena
from toxicspans.batching import PackedSteps
from toxicspans.crf import CrfParams, crf_nll_grad, viterbi_decode
from toxicspans.embeddings import encode_post
from toxicspans.errors import ValidationError
from toxicspans.gate import GateModel, load_external_gate, save_gate
from toxicspans.model import init_params, nll_and_gradients
from toxicspans.span_codec import BridgePolicy
from toxicspans.tokenizer import tokenize
from toxicspans.training import dev_char_f1

TABLE = make_table(["a", "b"], dim=3)
CRF, CRF1, CRF3 = (CrfParams(trans=np.zeros((L, L)), start=np.zeros(L), stop=np.zeros(L)) for L in (2, 1, 3))


def model():
    return init_params(TABLE, 2, np.random.default_rng(0))


def post(text):
    return encode_post(tokenize(text), TABLE, 8)


def save_external_gate(tmp_path):
    save_gate(load_external_gate(io.BytesIO(b"0\t0.9\n")), tmp_path / "gate.json")


CASES = {
    "gate-kind": (lambda tmp_path: GateModel(kind="bogus"), "unknown gate kind 'bogus'"),
    "save-external-gate": (save_external_gate, "only internal gates are saved as JSON models"),
    "replacement-matrix-shape": (
        lambda tmp_path: TABLE.with_matrix(np.zeros((3, 3))),
        "replacement matrix shape (3, 3) != (4, 3)",
    ),
    "viterbi-no-steps": (
        lambda tmp_path: viterbi_decode(np.zeros((0, 2)), CRF),
        "emissions must be T x L with T >= 1, got shape (0, 2)",
    ),
    "viterbi-emission-width": (
        lambda tmp_path: viterbi_decode(np.zeros((3, 3)), CRF),
        "emission width 3 != label count 2",
    ),
    "viterbi-crf-width": (
        lambda tmp_path: viterbi_decode(np.zeros((3, 3)), CRF3),
        "CRF trans, start and stop shapes must be ((2, 2), (2,), (2,)) for 2 labels, got ((3, 3), (3,), (3,))",
    ),
    "nll-grad-crf-width": (
        lambda tmp_path: crf_nll_grad(np.zeros((3, 2)), CRF1, [[0, 0, 0]], PackedSteps([3]), CRF1),
        "CRF trans, start and stop shapes must be ((2, 2), (2,), (2,)) for 2 labels, got ((1, 1), (1,), (1,))",
    ),
    "nll-grad-emission-width": (
        lambda tmp_path: crf_nll_grad(np.zeros((3, 1)), CRF, [[0, 0, 0]], PackedSteps([3]), CRF),
        "emission width 1 != label count 2",
    ),
    "hidden-size": (
        lambda tmp_path: init_params(TABLE, 0, np.random.default_rng(0)),
        "hidden_size must be >= 1, got 0",
    ),
    "label-list-count": (
        lambda tmp_path: nll_and_gradients([post("a b"), post("b")], [[0, 1]], model(), Arena()),
        "1 label lists for 2 posts",
    ),
    "empty-minibatch": (lambda tmp_path: nll_and_gradients([], [], model(), Arena()), "empty minibatch"),
    "empty-dev-split": (lambda tmp_path: dev_char_f1([], model(), BridgePolicy(), Arena()), "dev split is empty"),
}


@pytest.mark.parametrize("case", CASES)
def test_guard_raises_its_validation_error(case, tmp_path):
    call, message = CASES[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(tmp_path)
